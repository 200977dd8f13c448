//! The operation log a generator keeps, and the checks that recompute the
//! server's answers from the seed alone.

use aic_ckpt::fleet::SharedDatasetFleet;
use aic_ckpt::format::CheckpointFile;
use aic_ckpt::script::payload_digest;
use aic_delta::pa::{pa_encode, PaParams};
use aic_delta::strong::fnv1a;
use bytes::Bytes;

use crate::report::Tally;

/// One client-visible operation. `job` is the server's tenant id plus one
/// (the record owner).
#[derive(Debug, Clone)]
pub enum Op {
    Join {
        job: u64,
        persona: usize,
    },
    Cut {
        job: u64,
        persona: usize,
        round: u64,
        full: bool,
        ordinal: u64,
        digest: u64,
    },
    Crash {
        job: u64,
        level: usize,
    },
    Recover {
        persona: usize,
        level: usize,
        round: u64,
        image_digest: u64,
    },
    Leave {
        job: u64,
    },
}

/// Operations stamped with the seconds since the loop started at which the
/// generator saw them complete, in completion order.
pub type OpLog = Vec<(f64, Op)>;

/// The canonical cpu-state blob of a fleet tenant at `round`.
pub fn round_state(round: u64) -> Bytes {
    Bytes::copy_from_slice(&round.to_le_bytes())
}

/// The checkpoint file the server builds for this cut — a pure function
/// of (persona, round, full, job).
pub fn cut_file(
    fleet: &SharedDatasetFleet,
    pa: &PaParams,
    job: u64,
    persona: usize,
    round: u64,
    full: bool,
) -> CheckpointFile {
    if full {
        CheckpointFile::full(job, 0, fleet.snapshot(persona, round), round_state(round))
    } else {
        let prev = fleet.snapshot(persona, round - 1);
        let dirty = fleet.dirty(persona, round);
        let (pa_file, _) = pa_encode(&prev, &dirty, pa);
        CheckpointFile::delta(
            job,
            0,
            pa_file,
            (0..fleet.pages_of(persona) as u64).collect(),
            round_state(round),
        )
    }
}

/// The image digest a correct recovery to `round` reports (0 when the
/// tenant restarted from scratch).
pub fn expected_image_digest(fleet: &SharedDatasetFleet, persona: usize, round: u64) -> u64 {
    let mut buf = Vec::new();
    for (idx, page) in fleet.snapshot(persona, round).iter() {
        buf.extend_from_slice(&idx.to_le_bytes());
        buf.extend_from_slice(page.as_slice());
    }
    buf.extend_from_slice(&round.to_le_bytes());
    fnv1a(&buf)
}

/// Recompute up to `max_cuts` commit digests (spread evenly over the log)
/// and every recovery image digest; each mismatch is a failure.
pub fn verify(
    fleet: &SharedDatasetFleet,
    pa: &PaParams,
    ops: &[(f64, Op)],
    max_cuts: usize,
) -> Tally {
    let mut t = Tally::default();
    let cuts = ops
        .iter()
        .filter(|(_, o)| matches!(o, Op::Cut { .. }))
        .count();
    let stride = cuts.div_ceil(max_cuts.max(1)).max(1);
    let mut i = 0usize;
    for (_, op) in ops {
        match *op {
            Op::Cut {
                job,
                persona,
                round,
                full,
                ordinal,
                digest,
            } => {
                if i.is_multiple_of(stride) {
                    let want =
                        payload_digest(&cut_file(fleet, pa, job, persona, round, full), ordinal);
                    t.check(want == digest, || {
                        format!("job {job} ordinal {ordinal}: payload digest {digest:016x} != recomputed {want:016x}")
                    });
                }
                i += 1;
            }
            Op::Recover {
                persona,
                level,
                round,
                image_digest,
            } => {
                let want = if level == 0 {
                    0
                } else {
                    expected_image_digest(fleet, persona, round)
                };
                t.check(want == image_digest, || {
                    format!("persona {persona}: recovered image at round {round} (level {level}) differs from the persona")
                });
            }
            _ => {}
        }
    }
    t
}
