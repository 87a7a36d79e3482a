//! Block-granular checkpoint images: the on-disk persistence layer.
//!
//! The checkpoint granule is the [`BlockId`](crate::BlockId) — the same unit the
//! runtime fetches, evicts and reference-counts (DOLMA's argument:
//! object/block granularity is the natural persistence unit for
//! runtime-managed heterogeneous memory). A checkpoint image captures,
//! for every registered block, its payload bytes, the tier it was
//! resident on, its refcount and label, plus an opaque
//! application/runtime section supplied by the caller (iteration
//! counter, `OocStats`, …).
//!
//! ## File format (version 1)
//!
//! ```text
//! offset 0   4 B   magic  b"HETC"
//! offset 4   4 B   format version, u32 LE
//! offset 8   8 B   metadata length N, u64 LE
//! offset 16  N B   metadata, JSON (block table + app section)
//! then             block payloads, concatenated in block-id order
//! ```
//!
//! Every block entry in the metadata carries an FNV-1a 64 checksum of
//! its payload, so a flipped byte anywhere in the payload region is
//! detected before a single block is restored. Writers go through a
//! temp file in the same directory followed by `rename`, so a crash
//! mid-checkpoint leaves the previous image intact — the reader only
//! ever sees a complete image or the old one.
//!
//! Corruption never panics: every structural defect (bad magic,
//! truncation, checksum mismatch, non-contiguous block table) surfaces
//! as a structured [`MemError`] and the image is rejected wholesale.

use crate::block::AccessMode;
use crate::error::MemError;
use crate::node::{NodeId, DDR4};
use crate::Memory;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// File magic: the first four bytes of every checkpoint image.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"HETC";

/// The format version this build writes and the only one it reads.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Fixed-size header: magic + version + metadata length.
const HEADER_LEN: usize = 16;

/// Retries for transient (fault-injected) allocation failures during
/// restore before giving up on the image.
const RESTORE_ALLOC_RETRIES: u32 = 8;

/// FNV-1a 64-bit: the per-block payload checksum. Not cryptographic —
/// it guards against torn writes and bit rot, not adversaries.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One block's metadata in the checkpoint image's block table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockRecord {
    /// Block id at checkpoint time; restore reproduces it exactly.
    pub id: u32,
    /// Payload size in bytes.
    pub size: usize,
    /// Raw node number the block was resident on (0 = DDR4, 1 = HBM).
    pub node: u8,
    /// Reference count at checkpoint time (0 at a true quiescence).
    pub refcount: u32,
    /// Human-readable label the block was registered with.
    pub label: String,
    /// FNV-1a 64 checksum of the payload bytes.
    pub checksum: u64,
}

/// The JSON metadata section of an image.
#[derive(Debug, Serialize, Deserialize)]
struct CheckpointMeta {
    blocks: Vec<BlockRecord>,
    app: String,
}

/// A fully parsed and checksum-verified checkpoint image.
#[derive(Debug)]
pub struct CheckpointImage {
    /// Block table plus payload bytes, in ascending id order.
    pub blocks: Vec<(BlockRecord, Vec<u8>)>,
    /// The opaque application/runtime section (whatever string the
    /// writer passed to [`write_checkpoint`]).
    pub app: String,
}

/// What a successful [`write_checkpoint`] captured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointSummary {
    /// Number of blocks snapshotted.
    pub blocks: usize,
    /// Total payload bytes written.
    pub payload_bytes: u64,
}

fn io_err(what: &str, e: &std::io::Error) -> MemError {
    MemError::CheckpointIo {
        detail: format!("{what}: {e}"),
    }
}

fn corrupt(detail: impl Into<String>) -> MemError {
    MemError::CheckpointCorrupted {
        detail: detail.into(),
    }
}

/// Snapshot every registered block of `mem` plus the opaque `app`
/// section into a version-1 image at `path`, atomically.
///
/// The caller must hold the system quiescent: no in-flight migrations,
/// no writers. Each block is read under a shared [`AccessMode::ReadOnly`]
/// guard, so a concurrent writer is a loud assertion, not a torn
/// snapshot. The image is staged in `<path>.tmp` and `rename`d into
/// place, so an interrupted checkpoint never clobbers the previous one.
pub fn write_checkpoint(
    mem: &Memory,
    path: &Path,
    app: &str,
) -> Result<CheckpointSummary, MemError> {
    let registry = mem.registry();
    let n = registry.len();
    let mut records = Vec::with_capacity(n);
    let mut payloads: Vec<u8> = Vec::new();
    for i in 0..n {
        let id = crate::block::BlockId(u32::try_from(i).expect("block count fits u32"));
        let info = registry.info(id);
        let guard = registry.access(id, AccessMode::ReadOnly);
        let bytes = guard.bytes();
        records.push(BlockRecord {
            id: id.0,
            size: bytes.len(),
            node: guard.node().raw(),
            refcount: info.refcount,
            label: info.label.clone(),
            checksum: fnv1a64(bytes),
        });
        payloads.extend_from_slice(bytes);
    }
    let meta = serde_json::to_string(&CheckpointMeta {
        blocks: records,
        app: app.to_owned(),
    })
    .map_err(|e| MemError::CheckpointIo {
        detail: format!("encoding metadata: {e}"),
    })?
    .into_bytes();

    let mut image = Vec::with_capacity(HEADER_LEN + meta.len() + payloads.len());
    image.extend_from_slice(&CHECKPOINT_MAGIC);
    image.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    image.extend_from_slice(&(meta.len() as u64).to_le_bytes());
    image.extend_from_slice(&meta);
    image.extend_from_slice(&payloads);

    let file_name = path.file_name().ok_or_else(|| {
        corrupt(format!(
            "checkpoint path {} has no file name",
            path.display()
        ))
    })?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    std::fs::write(&tmp, &image).map_err(|e| io_err("writing temp image", &e))?;
    std::fs::rename(&tmp, path).map_err(|e| io_err("renaming temp image", &e))?;
    Ok(CheckpointSummary {
        blocks: n,
        payload_bytes: payloads.len() as u64,
    })
}

/// Read and fully validate the image at `path`: magic, version,
/// section lengths, block-table contiguity and every per-block
/// checksum. Nothing touches a registry here — a corrupt image is
/// rejected before any restore side effect.
pub fn read_checkpoint(path: &Path) -> Result<CheckpointImage, MemError> {
    let raw = std::fs::read(path).map_err(|e| io_err("reading image", &e))?;
    if raw.len() < HEADER_LEN {
        return Err(corrupt(format!(
            "file is {} B, smaller than the {HEADER_LEN} B header",
            raw.len()
        )));
    }
    if raw[0..4] != CHECKPOINT_MAGIC {
        return Err(corrupt("bad magic (not a checkpoint image)"));
    }
    let version = u32::from_le_bytes(raw[4..8].try_into().expect("4 bytes"));
    if version != CHECKPOINT_VERSION {
        return Err(MemError::CheckpointVersionMismatch {
            found: version,
            expected: CHECKPOINT_VERSION,
        });
    }
    let meta_len = u64::from_le_bytes(raw[8..16].try_into().expect("8 bytes")) as usize;
    let payload_start = HEADER_LEN
        .checked_add(meta_len)
        .ok_or_else(|| corrupt("metadata length overflows"))?;
    if payload_start > raw.len() {
        return Err(corrupt(format!(
            "metadata section claims {meta_len} B but only {} B remain",
            raw.len() - HEADER_LEN
        )));
    }
    let meta_text = std::str::from_utf8(&raw[HEADER_LEN..payload_start])
        .map_err(|e| corrupt(format!("metadata is not UTF-8: {e}")))?;
    let meta: CheckpointMeta = serde_json::from_str(meta_text)
        .map_err(|e| corrupt(format!("metadata does not parse: {e}")))?;

    let mut blocks = Vec::with_capacity(meta.blocks.len());
    let mut offset = payload_start;
    for (i, record) in meta.blocks.into_iter().enumerate() {
        if record.id as usize != i {
            return Err(corrupt(format!(
                "block table is not contiguous: entry {i} has id {}",
                record.id
            )));
        }
        let end = offset
            .checked_add(record.size)
            .filter(|&e| e <= raw.len())
            .ok_or_else(|| {
                corrupt(format!(
                    "payload for blk{i} ({} B) is truncated",
                    record.size
                ))
            })?;
        let payload = raw[offset..end].to_vec();
        let sum = fnv1a64(&payload);
        if sum != record.checksum {
            return Err(corrupt(format!(
                "blk{i} checksum mismatch: stored {:#018x}, computed {sum:#018x}",
                record.checksum
            )));
        }
        offset = end;
        blocks.push((record, payload));
    }
    if offset != raw.len() {
        return Err(corrupt(format!(
            "{} trailing bytes after the last payload",
            raw.len() - offset
        )));
    }
    Ok(CheckpointImage {
        blocks,
        app: meta.app,
    })
}

/// Rebuild `mem`'s block registry from a verified image.
///
/// The registry must be empty: block ids are allocated sequentially,
/// and re-registering in ascending saved-id order is what reproduces
/// the checkpointed ids exactly. Each block is re-admitted to the tier
/// it was checkpointed on; when that tier's budget is exhausted
/// (HBM shrank) the block spills to DDR4 instead — the same
/// degraded-placement rule the admission path uses.
///
/// The metadata carries no checksum, so a record naming a node the
/// topology lacks is rejected as corrupt before anything is registered.
pub fn restore_into(mem: &Memory, image: &CheckpointImage) -> Result<(), MemError> {
    let registry = mem.registry();
    if !registry.is_empty() {
        return Err(MemError::CheckpointFailed {
            detail: format!(
                "restore requires an empty registry, found {} blocks",
                registry.len()
            ),
        });
    }
    let nodes = mem.topology().nodes().len();
    if let Some((record, _)) = image
        .blocks
        .iter()
        .find(|(record, _)| usize::from(record.node) >= nodes)
    {
        return Err(corrupt(format!(
            "blk{} was resident on node {}, but the topology has {nodes} nodes",
            record.id, record.node
        )));
    }
    for (record, payload) in &image.blocks {
        let mut buf = alloc_with_spill(mem, payload.len(), NodeId::new(record.node))?;
        buf.as_mut_slice()[..payload.len()].copy_from_slice(payload);
        let id = registry.register(buf, record.label.clone());
        if id.0 != record.id {
            return Err(MemError::CheckpointFailed {
                detail: format!(
                    "restored block got id {} but the image recorded {}",
                    id.0, record.id
                ),
            });
        }
        for _ in 0..record.refcount {
            registry.add_ref(id);
        }
    }
    Ok(())
}

/// Allocate `size` bytes on `preferred`, spilling to DDR4 when the
/// preferred tier's budget is exhausted. Transient (fault-injected)
/// allocation failures are retried a bounded number of times.
fn alloc_with_spill(
    mem: &Memory,
    size: usize,
    preferred: NodeId,
) -> Result<crate::AlignedBuf, MemError> {
    let mut node = preferred;
    let mut transient = 0u32;
    loop {
        match mem.alloc_on_node(size, node) {
            Ok(buf) => return Ok(buf),
            Err(MemError::CapacityExceeded { .. }) if node != DDR4 => node = DDR4,
            Err(e) if e.is_transient() && transient < RESTORE_ALLOC_RETRIES => {
                transient += 1;
            }
            Err(e) => {
                return Err(MemError::CheckpointFailed {
                    detail: format!("allocating {size} B on {node} during restore: {e}"),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{DDR4, HBM};
    use crate::topology::Topology;

    fn mem_with(hbm: u64, ddr: u64) -> std::sync::Arc<Memory> {
        Memory::new(Topology::knl_flat_scaled_with(hbm, ddr))
    }

    fn fill(mem: &Memory, sizes: &[(usize, NodeId)]) -> Vec<crate::BlockId> {
        sizes
            .iter()
            .enumerate()
            .map(|(i, &(size, node))| {
                let mut buf = mem.alloc_on_node(size, node).unwrap();
                for (j, b) in buf.as_mut_slice().iter_mut().enumerate() {
                    *b = ((i * 131 + j * 7) % 251) as u8;
                }
                mem.registry().register(buf, format!("t{i}"))
            })
            .collect()
    }

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("hetmem-ckpt-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{:?}.het", std::thread::current().id()))
    }

    #[test]
    fn fnv1a64_known_vectors() {
        // Reference values for the 64-bit FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn round_trip_preserves_bytes_tier_and_labels() {
        let mem = mem_with(1 << 20, 1 << 22);
        let ids = fill(&mem, &[(4096, HBM), (8192, DDR4), (1024, HBM)]);
        let path = tmp_path("round-trip");
        let summary = write_checkpoint(&mem, &path, "app-state").unwrap();
        assert_eq!(summary.blocks, 3);
        assert_eq!(summary.payload_bytes, 4096 + 8192 + 1024);

        let image = read_checkpoint(&path).unwrap();
        assert_eq!(image.app, "app-state");
        assert_eq!(image.blocks.len(), 3);

        let fresh = mem_with(1 << 20, 1 << 22);
        restore_into(&fresh, &image).unwrap();
        assert_eq!(fresh.registry().len(), 3);
        for (i, &id) in ids.iter().enumerate() {
            let orig = mem.registry().access(id, AccessMode::ReadOnly);
            let back = fresh.registry().access(id, AccessMode::ReadOnly);
            assert_eq!(orig.bytes(), back.bytes(), "blk{i} payload");
            assert_eq!(orig.node(), back.node(), "blk{i} tier");
            assert_eq!(
                mem.registry().info(id).label,
                fresh.registry().info(id).label
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn restore_spills_when_hbm_shrank() {
        let mem = mem_with(1 << 20, 1 << 22);
        fill(&mem, &[(64 * 1024, HBM), (64 * 1024, HBM)]);
        let path = tmp_path("spill");
        write_checkpoint(&mem, &path, "").unwrap();
        let image = read_checkpoint(&path).unwrap();

        // The new node only fits one of the two HBM blocks.
        let small = mem_with(80 * 1024, 1 << 22);
        restore_into(&small, &image).unwrap();
        assert_eq!(small.registry().resident_on(HBM).len(), 1);
        assert_eq!(small.registry().resident_on(DDR4).len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn restore_requires_empty_registry() {
        let mem = mem_with(1 << 20, 1 << 22);
        fill(&mem, &[(512, DDR4)]);
        let path = tmp_path("nonempty");
        write_checkpoint(&mem, &path, "").unwrap();
        let image = read_checkpoint(&path).unwrap();
        let err = restore_into(&mem, &image).unwrap_err();
        assert!(matches!(err, MemError::CheckpointFailed { .. }), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn restore_rejects_a_record_on_an_unknown_node() {
        let record = |id: u32, node: u8| BlockRecord {
            id,
            size: 64,
            node,
            refcount: 0,
            label: format!("b{id}"),
            checksum: fnv1a64(&[0; 64]),
        };
        // The bad record comes second: nothing may be registered first.
        let image = CheckpointImage {
            blocks: vec![(record(0, 1), vec![0; 64]), (record(1, 3), vec![0; 64])],
            app: String::new(),
        };
        let mem = mem_with(1 << 20, 1 << 22);
        let err = restore_into(&mem, &image).unwrap_err();
        assert!(
            matches!(err, MemError::CheckpointCorrupted { ref detail } if detail.contains("node 3")),
            "{err}"
        );
        assert!(mem.registry().is_empty());
    }

    #[test]
    fn truncated_image_is_rejected() {
        let mem = mem_with(1 << 20, 1 << 22);
        fill(&mem, &[(2048, HBM)]);
        let path = tmp_path("truncate");
        write_checkpoint(&mem, &path, "").unwrap();
        let full = std::fs::read(&path).unwrap();
        for cut in [3, HEADER_LEN - 1, full.len() / 2, full.len() - 1] {
            std::fs::write(&path, &full[..cut]).unwrap();
            let err = read_checkpoint(&path).unwrap_err();
            assert!(
                matches!(err, MemError::CheckpointCorrupted { .. }),
                "cut at {cut}: {err}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flipped_payload_byte_fails_checksum() {
        let mem = mem_with(1 << 20, 1 << 22);
        fill(&mem, &[(2048, HBM)]);
        let path = tmp_path("bitflip");
        write_checkpoint(&mem, &path, "").unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0x40;
        std::fs::write(&path, &raw).unwrap();
        let err = read_checkpoint(&path).unwrap_err();
        assert!(
            matches!(err, MemError::CheckpointCorrupted { ref detail } if detail.contains("checksum")),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mem = mem_with(1 << 20, 1 << 22);
        fill(&mem, &[(256, DDR4)]);
        let path = tmp_path("version");
        write_checkpoint(&mem, &path, "").unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        raw[4..8].copy_from_slice(&99u32.to_le_bytes());
        std::fs::write(&path, &raw).unwrap();
        let err = read_checkpoint(&path).unwrap_err();
        assert_eq!(
            err,
            MemError::CheckpointVersionMismatch {
                found: 99,
                expected: CHECKPOINT_VERSION
            }
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_and_trailing_bytes_are_rejected() {
        let mem = mem_with(1 << 20, 1 << 22);
        fill(&mem, &[(256, DDR4)]);
        let path = tmp_path("magic");
        write_checkpoint(&mem, &path, "").unwrap();
        let good = std::fs::read(&path).unwrap();

        let mut bad = good.clone();
        bad[0] = b'X';
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            read_checkpoint(&path).unwrap_err(),
            MemError::CheckpointCorrupted { .. }
        ));

        let mut padded = good;
        padded.push(0);
        std::fs::write(&path, &padded).unwrap();
        assert!(matches!(
            read_checkpoint(&path).unwrap_err(),
            MemError::CheckpointCorrupted { .. }
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tmp_file_never_clobbers_previous_image() {
        let mem = mem_with(1 << 20, 1 << 22);
        fill(&mem, &[(512, HBM)]);
        let path = tmp_path("atomic");
        write_checkpoint(&mem, &path, "first").unwrap();
        // Simulate a crash mid-write: a half-written temp file next to
        // a complete previous image.
        let mut tmp_name = path.file_name().unwrap().to_os_string();
        tmp_name.push(".tmp");
        std::fs::write(path.with_file_name(&tmp_name), b"partial garbage").unwrap();
        let image = read_checkpoint(&path).unwrap();
        assert_eq!(image.app, "first");
        std::fs::remove_file(path.with_file_name(&tmp_name)).ok();
        std::fs::remove_file(&path).ok();
    }
}
