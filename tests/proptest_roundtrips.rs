//! Property-based tests over the data-plane invariants: every codec and
//! container must round-trip losslessly for arbitrary inputs, and RAID-5
//! must reconstruct under any single-node failure.

use bytes::Bytes;
use proptest::collection::vec;
use proptest::prelude::*;

use aic::ckpt::format::{CheckpointFile, CheckpointKind};
use aic::ckpt::storage::{BandwidthModel, FlatStore, Raid5Group, Store};
use aic::delta::encode::{encode_with_report, EncodeParams};
use aic::delta::pa::{pa_decode, pa_encode, PaParams};
use aic::delta::reference::encode_with_report_reference;
use aic::delta::xor::{xor_decode, xor_encode};
use aic::delta::{decode, encode};
use aic::memsim::{Page, Snapshot, PAGE_SIZE};

/// Mutate `base` with a few random splices — produces realistic
/// partially-similar source/target pairs (pure random pairs never exercise
/// the COPY paths).
fn splice(base: &[u8], edits: &[(usize, Vec<u8>)]) -> Vec<u8> {
    let mut out = base.to_vec();
    for (pos, data) in edits {
        if out.is_empty() {
            break;
        }
        let pos = pos % out.len();
        let end = (pos + data.len()).min(out.len());
        out[pos..end].copy_from_slice(&data[..end - pos]);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn delta_roundtrip_arbitrary_buffers(
        source in vec(any::<u8>(), 0..8192),
        target in vec(any::<u8>(), 0..8192),
        block_size in 4usize..128,
    ) {
        let params = EncodeParams { block_size, max_probe: 4 };
        let delta = encode(&source, &target, &params);
        prop_assert_eq!(decode(&source, &delta).unwrap(), target);
    }

    #[test]
    fn delta_roundtrip_similar_buffers(
        source in vec(any::<u8>(), 256..8192),
        edits in vec((any::<usize>(), vec(any::<u8>(), 1..256)), 0..6),
    ) {
        let target = splice(&source, &edits);
        let delta = encode(&source, &target, &EncodeParams::default());
        prop_assert_eq!(decode(&source, &delta).unwrap(), target);
    }

    #[test]
    fn optimized_encoder_is_bit_identical_to_reference(
        source in vec(any::<u8>(), 0..8192),
        target in vec(any::<u8>(), 0..8192),
        block_size in 4usize..128,
        max_probe in 1usize..12,
    ) {
        // The optimized hot path (flat index, word-wise extension, direct
        // arena emission) must reproduce the naive retained encoder's wire
        // bytes — payload AND header fields AND work report — exactly.
        let params = EncodeParams { block_size, max_probe };
        let (optimized, opt_report) = encode_with_report(&source, &target, &params);
        let (reference, ref_report) = encode_with_report_reference(&source, &target, &params);
        prop_assert_eq!(optimized, reference);
        prop_assert_eq!(opt_report, ref_report);
    }

    #[test]
    fn optimized_matches_reference_on_similar_pairs_and_tail_windows(
        source in vec(any::<u8>(), 256..8192),
        edits in vec((any::<usize>(), vec(any::<u8>(), 1..256)), 0..6),
        tail in 0usize..64,
        block_size in 4usize..128,
    ) {
        // Spliced targets exercise the COPY/extension paths; truncating by
        // `tail` bytes forces final windows with target.len() - pos <
        // block_size (the scan-loop exit conditions).
        let mut target = splice(&source, &edits);
        let keep = target.len().saturating_sub(tail);
        target.truncate(keep);
        let params = EncodeParams { block_size, max_probe: 8 };
        let (optimized, opt_report) = encode_with_report(&source, &target, &params);
        let (reference, ref_report) = encode_with_report_reference(&source, &target, &params);
        prop_assert_eq!(decode(&source, &optimized).unwrap(), target);
        prop_assert_eq!(optimized, reference);
        prop_assert_eq!(opt_report, ref_report);
    }

    #[test]
    fn optimized_matches_reference_under_pathological_repetition(
        unit in vec(any::<u8>(), 1..8),
        reps in 64usize..512,
        max_probe in 1usize..6,
        noise_at in any::<usize>(),
        noise in any::<u8>(),
    ) {
        // Highly repetitive buffers give every weak hash hundreds of
        // candidates; the max_probe bound and candidate ORDER must agree
        // between the two encoders for the outputs to stay identical.
        let source: Vec<u8> = unit.iter().copied().cycle().take(unit.len() * reps).collect();
        let mut target = source.clone();
        let at = noise_at % target.len();
        target[at] = noise; // one disruption breaks the uniform match chain
        let params = EncodeParams { block_size: 16, max_probe };
        let (optimized, opt_report) = encode_with_report(&source, &target, &params);
        let (reference, ref_report) = encode_with_report_reference(&source, &target, &params);
        prop_assert_eq!(decode(&source, &optimized).unwrap(), target);
        prop_assert_eq!(optimized, reference);
        prop_assert_eq!(opt_report, ref_report);
    }

    #[test]
    fn delta_never_catastrophically_expands(
        source in vec(any::<u8>(), 0..4096),
        target in vec(any::<u8>(), 0..4096),
    ) {
        let delta = encode(&source, &target, &EncodeParams::default());
        // Worst case: all-literal plus bounded instruction overhead.
        prop_assert!(delta.wire_len() <= target.len() as u64 + 64,
            "wire {} vs target {}", delta.wire_len(), target.len());
    }

    #[test]
    fn pa_roundtrip_random_page_sets(
        seed_pages in vec((0u64..64, any::<u8>()), 1..12),
        edit_frac in 0u8..=100,
    ) {
        // Previous snapshot: pages keyed by (idx, fill byte).
        let mut prev = Snapshot::new();
        for (idx, fill) in &seed_pages {
            let mut p = Page::zeroed();
            p.write_at(0, &vec![*fill; PAGE_SIZE]);
            prev.insert(*idx, p);
        }
        // Dirty: every page partially rewritten with a derived pattern.
        let mut dirty = Snapshot::new();
        for (idx, fill) in &seed_pages {
            let mut p = prev.get(*idx).unwrap().clone();
            let len = PAGE_SIZE * (edit_frac as usize) / 100;
            p.write_at(0, &vec![fill.wrapping_add(1); len.max(1)]);
            dirty.insert(*idx, p);
        }
        let (file, report) = pa_encode(&prev, &dirty, &PaParams::default());
        prop_assert_eq!(pa_decode(&prev, &file).unwrap(), dirty);
        prop_assert!(report.delta_bytes > 0);
    }

    #[test]
    fn xor_roundtrip_random_pairs(
        fills in vec((0u64..32, any::<u8>(), any::<u8>()), 1..8),
    ) {
        let mut prev = Snapshot::new();
        let mut dirty = Snapshot::new();
        for (idx, a, b) in &fills {
            let mut pa = Page::zeroed();
            pa.write_at(0, &vec![*a; PAGE_SIZE]);
            let mut pb = pa.clone();
            pb.write_at(100, &vec![*b; 512]);
            prev.insert(*idx, pa);
            dirty.insert(*idx, pb);
        }
        let (file, _) = xor_encode(&prev, &dirty);
        prop_assert_eq!(xor_decode(&prev, &file).unwrap(), dirty);
    }

    #[test]
    fn checkpoint_file_roundtrip(
        job in any::<u64>(),
        seq in any::<u64>(),
        live in vec(0u64..10_000, 0..64),
        cpu in vec(any::<u8>(), 0..256),
        pages in vec((0u64..128, any::<u8>()), 0..8),
    ) {
        let mut sorted_live = live.clone();
        sorted_live.sort_unstable();
        sorted_live.dedup();
        let snap = Snapshot::from_pages(pages.iter().map(|(idx, fill)| {
            let mut p = Page::zeroed();
            p.write_at(0, &vec![*fill; PAGE_SIZE]);
            (*idx, p)
        }));
        let file = CheckpointFile::full(job, seq, snap, Bytes::from(cpu.clone()));
        let parsed = CheckpointFile::from_bytes(file.to_bytes()).unwrap();
        prop_assert_eq!(&parsed, &file);
        prop_assert_eq!(parsed.kind, CheckpointKind::Full);

        // And the incremental variant with an explicit live set.
        let file2 = CheckpointFile::incremental(job, seq, Snapshot::new(), sorted_live, Bytes::from(cpu));
        let parsed2 = CheckpointFile::from_bytes(file2.to_bytes()).unwrap();
        prop_assert_eq!(parsed2, file2);
    }

    #[test]
    fn checkpoint_rejects_any_single_byte_corruption(
        flip_at in any::<usize>(),
        pages in vec((0u64..16, any::<u8>()), 1..4),
    ) {
        let snap = Snapshot::from_pages(pages.iter().map(|(idx, fill)| {
            let mut p = Page::zeroed();
            p.write_at(0, &vec![*fill; PAGE_SIZE]);
            (*idx, p)
        }));
        let bytes = CheckpointFile::full(1, 0, snap, Bytes::new()).to_bytes();
        let mut corrupt = bytes.to_vec();
        let at = flip_at % corrupt.len();
        corrupt[at] ^= 0x01;
        prop_assert!(CheckpointFile::from_bytes(Bytes::from(corrupt)).is_err());
    }

    #[test]
    fn raid5_roundtrip_any_size_and_failure(
        len in 0usize..40_000,
        nodes in 3usize..8,
        chunk in 64usize..2048,
        dead in any::<usize>(),
        fill_seed in any::<u64>(),
    ) {
        let data: Vec<u8> = (0..len)
            .map(|i| (fill_seed.wrapping_mul(i as u64 + 1) >> 16) as u8)
            .collect();
        let data = Bytes::from(data);
        let mut g = Raid5Group::new(nodes, chunk, BandwidthModel::new(1e9, 0.0));
        g.put("x", data.clone());
        prop_assert_eq!(g.get("x").unwrap(), data.clone());
        g.fail_node(dead % nodes);
        prop_assert_eq!(g.get("x").unwrap(), data.clone());
        g.repair_node();
        prop_assert_eq!(g.get("x").unwrap(), data);
    }

    #[test]
    fn flat_store_holds_many_objects(
        objects in vec((0u32..64, vec(any::<u8>(), 0..512)), 1..32),
    ) {
        let mut store = FlatStore::new(BandwidthModel::new(1e6, 0.0));
        // Later writes of the same key win — mirror with a map.
        let mut reference = std::collections::HashMap::new();
        for (key, data) in &objects {
            let name = format!("o{key}");
            store.put(&name, Bytes::from(data.clone()));
            reference.insert(name, data.clone());
        }
        for (name, data) in reference {
            prop_assert_eq!(store.get(&name).unwrap(), Bytes::from(data));
        }
    }
}
