//! Crash-resumable checkpoint WAL for supervised grid runs.
//!
//! Completed work-item outputs are journaled to an append-only write-ahead
//! log so an interrupted sweep (SIGKILL, OOM, power loss) can resume
//! without recomputing finished cells. The format — `sdnav-checkpoint/v1`
//! — is built for exactly that failure model:
//!
//! * **Record framing.** Each record is `[u32 LE payload length]`
//!   `[u32 LE CRC-32 of payload]` `[compact JSON payload]`, fsync'd after
//!   every append. A record is visible only if its length and checksum
//!   both validate.
//! * **Torn-tail tolerance.** Replay stops at the first record whose
//!   frame is truncated or whose checksum fails; the valid prefix is kept,
//!   the torn tail is truncated away, and appends continue from there.
//! * **Bit-exact payloads.** `f64` values are stored as the hex of their
//!   IEEE-754 bit pattern and `u64` counters as decimal strings, so a
//!   resumed run reproduces *byte-identical* result JSON — the JSON layer
//!   itself (f64-backed numbers) never gets a chance to round anything.
//! * **Identity binding.** The first record is a header carrying a
//!   fingerprint of the controller spec and every result-affecting grid
//!   parameter (not the thread count). Resuming against a checkpoint from
//!   a different spec or grid is refused instead of silently mixing runs.
//! * **Seal records.** Graceful shutdown appends a `seal` record marking
//!   the WAL complete/interrupted. Seals are informational: replay ignores
//!   them, so a sealed-but-partial checkpoint resumes cleanly.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;

use sdnav_core::hash::{fnv1a, FNV_OFFSET};
use sdnav_core::sweep::{Fig3Row, SwSweepRow};
use sdnav_core::ControllerSpec;
use sdnav_json::Json;
use sdnav_sim::Estimate;

use crate::plan::{Figure, SimTopology};
use crate::{ChaosRow, ConsensusRow, GridError, GridSpec, ItemOutput, SimRow};

/// Schema tag carried by the WAL header record.
pub const CHECKPOINT_SCHEMA: &str = sdnav_json::schema::CHECKPOINT;

/// Upper bound on a single record payload. Real payloads are a few hundred
/// bytes; the bound lets replay reject a garbage length field immediately
/// instead of attempting a multi-gigabyte read.
const MAX_RECORD_LEN: u32 = 1 << 20;

/// Fingerprint binding a checkpoint to one (spec, grid) identity.
///
/// Covers the controller spec and every grid parameter that affects result
/// bytes. The thread count is deliberately excluded: results are
/// byte-identical across thread counts, so a checkpoint taken at
/// `--threads 8` must resume at `--threads 1` (and vice versa).
#[must_use]
pub fn fingerprint(spec: &ControllerSpec, grid: &GridSpec) -> u64 {
    let mut ident = String::new();
    ident.push_str(&sdnav_json::to_string(spec));
    ident.push('\n');
    for figure in &grid.figures {
        ident.push_str(figure.name());
        ident.push(',');
    }
    ident.push_str(&format!(
        "|points={}|reps={}|seed={}|horizon={:016x}|accel={:016x}|hosts={}",
        grid.points,
        grid.replications,
        grid.seed,
        grid.sim_horizon_hours.to_bits(),
        grid.sim_accelerate.to_bits(),
        grid.sim_compute_hosts,
    ));
    if let Some(campaign) = &grid.chaos_campaign {
        ident.push_str(&sdnav_json::to_string(campaign));
        for crew in &grid.chaos_crew_counts {
            ident.push_str(&format!("|crew={crew}"));
        }
        for p in &grid.chaos_ccf_probabilities {
            ident.push_str(&format!("|ccf={:016x}", p.to_bits()));
        }
    }
    if let Some(consensus) = &grid.consensus {
        ident.push_str(&sdnav_json::to_string(consensus));
        for t in &grid.consensus_election_timeouts_ms {
            ident.push_str(&format!("|et={:016x}", t.to_bits()));
        }
        for size in &grid.consensus_cluster_sizes {
            ident.push_str(&format!("|cluster={size}"));
        }
        for mix in &grid.consensus_fault_mixes {
            ident.push_str(&format!("|mix={}:{}", mix.byzantine, mix.crash));
        }
    }
    fnv1a(FNV_OFFSET, ident.as_bytes())
}

/// CRC-32 (IEEE, reflected) of one byte slice.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

fn ckpt_err(path: &Path, what: impl std::fmt::Display) -> GridError {
    GridError::Checkpoint(format!("checkpoint {}: {what}", path.display()))
}

// ---------------------------------------------------------------------------
// Bit-exact payload codec
// ---------------------------------------------------------------------------

fn enc_f64(v: f64) -> Json {
    Json::str(format!("{:016x}", v.to_bits()))
}

fn enc_u64(v: u64) -> Json {
    Json::str(v.to_string())
}

fn dec_field<'a>(obj: &'a Json, field: &str) -> Result<&'a Json, String> {
    obj.get(field).ok_or_else(|| format!("missing {field:?}"))
}

fn dec_f64(obj: &Json, field: &str) -> Result<f64, String> {
    let text = dec_field(obj, field)?
        .as_str()
        .map_err(|_| format!("{field:?} is not a hex string"))?;
    u64::from_str_radix(text, 16)
        .map(f64::from_bits)
        .map_err(|_| format!("{field:?} has bad hex bits {text:?}"))
}

fn dec_u64(obj: &Json, field: &str) -> Result<u64, String> {
    let text = dec_field(obj, field)?
        .as_str()
        .map_err(|_| format!("{field:?} is not a decimal string"))?;
    text.parse()
        .map_err(|_| format!("{field:?} has bad decimal {text:?}"))
}

fn dec_usize(obj: &Json, field: &str) -> Result<usize, String> {
    usize::try_from(dec_u64(obj, field)?).map_err(|_| format!("{field:?} overflows usize"))
}

fn dec_u32(obj: &Json, field: &str) -> Result<u32, String> {
    u32::try_from(dec_u64(obj, field)?).map_err(|_| format!("{field:?} overflows u32"))
}

fn dec_bool(obj: &Json, field: &str) -> Result<bool, String> {
    dec_field(obj, field)?
        .as_bool()
        .map_err(|_| format!("{field:?} is not a bool"))
}

fn dec_str<'a>(obj: &'a Json, field: &str) -> Result<&'a str, String> {
    dec_field(obj, field)?
        .as_str()
        .map_err(|_| format!("{field:?} is not a string"))
}

/// Maps a journaled topology name back onto the `&'static str` the rows
/// carry (the rows borrow, so the WAL cannot hand them an owned string).
fn static_topology(name: &str) -> Result<&'static str, String> {
    match name {
        "Small" => Ok(SimTopology::Small.name()),
        "Large" => Ok(SimTopology::Large.name()),
        other => Err(format!("unknown topology {other:?}")),
    }
}

fn enc_estimate(e: &Estimate) -> Json {
    Json::obj(vec![
        ("mean", enc_f64(e.mean)),
        ("std_error", enc_f64(e.std_error)),
        ("samples", enc_u64(e.samples as u64)),
    ])
}

fn dec_estimate(obj: &Json, field: &str) -> Result<Estimate, String> {
    let e = dec_field(obj, field)?;
    Ok(Estimate {
        mean: dec_f64(e, "mean")?,
        std_error: dec_f64(e, "std_error")?,
        samples: dec_usize(e, "samples")?,
    })
}

fn encode_output(output: &ItemOutput) -> Json {
    match output {
        ItemOutput::Fig3(row) => Json::obj(vec![
            ("kind", Json::str("fig3")),
            ("a_c", enc_f64(row.a_c)),
            ("small", enc_f64(row.small)),
            ("medium", enc_f64(row.medium)),
            ("large", enc_f64(row.large)),
        ]),
        ItemOutput::Sw(figure, row) => Json::obj(vec![
            ("kind", Json::str("sw")),
            ("figure", Json::str(figure.name())),
            ("x", enc_f64(row.x)),
            ("a", enc_f64(row.a)),
            ("small_no_sup", enc_f64(row.small_no_sup)),
            ("small_sup", enc_f64(row.small_sup)),
            ("large_no_sup", enc_f64(row.large_no_sup)),
            ("large_sup", enc_f64(row.large_sup)),
        ]),
        ItemOutput::Sim(row) => Json::obj(vec![
            ("kind", Json::str("sim")),
            ("x", enc_f64(row.x)),
            ("topology", Json::str(row.topology)),
            ("supervisor_required", Json::Bool(row.supervisor_required)),
            ("replications", enc_u64(row.replications as u64)),
            ("cp", enc_estimate(&row.cp)),
            ("dp", enc_estimate(&row.dp)),
            ("events", enc_u64(row.events)),
            ("analytic_cp", enc_f64(row.analytic_cp)),
            ("analytic_dp", enc_f64(row.analytic_dp)),
        ]),
        ItemOutput::Chaos(row) => Json::obj(vec![
            ("kind", Json::str("chaos")),
            ("crew_count", enc_u64(row.crew_count as u64)),
            ("ccf_probability", enc_f64(row.ccf_probability)),
            ("topology", Json::str(row.topology)),
            ("replications", enc_u64(row.replications as u64)),
            ("cp", enc_estimate(&row.cp)),
            ("dp", enc_estimate(&row.dp)),
            (
                "injected_cp_hours_mean",
                enc_f64(row.injected_cp_hours_mean),
            ),
            ("organic_cp_hours_mean", enc_f64(row.organic_cp_hours_mean)),
            ("injected_events", enc_u64(row.injected_events)),
            ("revealed_latents", enc_u64(row.revealed_latents)),
            ("events", enc_u64(row.events)),
        ]),
        ItemOutput::Consensus(row) => Json::obj(vec![
            ("kind", Json::str("consensus")),
            ("election_timeout_ms", enc_f64(row.election_timeout_ms)),
            ("cluster_size", enc_u64(u64::from(row.cluster_size))),
            ("byzantine", enc_u64(u64::from(row.byzantine))),
            ("crash", enc_u64(u64::from(row.crash))),
            ("quorum", enc_u64(u64::from(row.quorum))),
            ("replications", enc_u64(row.replications as u64)),
            ("availability", enc_estimate(&row.availability)),
            (
                "election_fraction_mean",
                enc_f64(row.election_fraction_mean),
            ),
            ("stall_fraction_mean", enc_f64(row.stall_fraction_mean)),
            ("elections", enc_u64(row.elections)),
            ("ctmc_availability", enc_f64(row.ctmc_availability)),
        ]),
    }
}

fn decode_output(obj: &Json) -> Result<ItemOutput, String> {
    match dec_str(obj, "kind")? {
        "fig3" => Ok(ItemOutput::Fig3(Fig3Row {
            a_c: dec_f64(obj, "a_c")?,
            small: dec_f64(obj, "small")?,
            medium: dec_f64(obj, "medium")?,
            large: dec_f64(obj, "large")?,
        })),
        "sw" => {
            let figure = Figure::parse(dec_str(obj, "figure")?)
                .ok_or_else(|| "unknown figure".to_owned())?;
            Ok(ItemOutput::Sw(
                figure,
                SwSweepRow {
                    x: dec_f64(obj, "x")?,
                    a: dec_f64(obj, "a")?,
                    small_no_sup: dec_f64(obj, "small_no_sup")?,
                    small_sup: dec_f64(obj, "small_sup")?,
                    large_no_sup: dec_f64(obj, "large_no_sup")?,
                    large_sup: dec_f64(obj, "large_sup")?,
                },
            ))
        }
        "sim" => Ok(ItemOutput::Sim(SimRow {
            x: dec_f64(obj, "x")?,
            topology: static_topology(dec_str(obj, "topology")?)?,
            supervisor_required: dec_bool(obj, "supervisor_required")?,
            replications: dec_usize(obj, "replications")?,
            cp: dec_estimate(obj, "cp")?,
            dp: dec_estimate(obj, "dp")?,
            events: dec_u64(obj, "events")?,
            analytic_cp: dec_f64(obj, "analytic_cp")?,
            analytic_dp: dec_f64(obj, "analytic_dp")?,
        })),
        "chaos" => Ok(ItemOutput::Chaos(ChaosRow {
            crew_count: dec_usize(obj, "crew_count")?,
            ccf_probability: dec_f64(obj, "ccf_probability")?,
            topology: static_topology(dec_str(obj, "topology")?)?,
            replications: dec_usize(obj, "replications")?,
            cp: dec_estimate(obj, "cp")?,
            dp: dec_estimate(obj, "dp")?,
            injected_cp_hours_mean: dec_f64(obj, "injected_cp_hours_mean")?,
            organic_cp_hours_mean: dec_f64(obj, "organic_cp_hours_mean")?,
            injected_events: dec_u64(obj, "injected_events")?,
            revealed_latents: dec_u64(obj, "revealed_latents")?,
            events: dec_u64(obj, "events")?,
        })),
        "consensus" => Ok(ItemOutput::Consensus(ConsensusRow {
            election_timeout_ms: dec_f64(obj, "election_timeout_ms")?,
            cluster_size: dec_u32(obj, "cluster_size")?,
            byzantine: dec_u32(obj, "byzantine")?,
            crash: dec_u32(obj, "crash")?,
            quorum: dec_u32(obj, "quorum")?,
            replications: dec_usize(obj, "replications")?,
            availability: dec_estimate(obj, "availability")?,
            election_fraction_mean: dec_f64(obj, "election_fraction_mean")?,
            stall_fraction_mean: dec_f64(obj, "stall_fraction_mean")?,
            elections: dec_u64(obj, "elections")?,
            ctmc_availability: dec_f64(obj, "ctmc_availability")?,
        })),
        other => Err(format!("unknown output kind {other:?}")),
    }
}

// ---------------------------------------------------------------------------
// WAL writer / replay
// ---------------------------------------------------------------------------

/// Append handle over an open checkpoint WAL.
#[derive(Debug)]
pub(crate) struct CheckpointWal {
    file: File,
    path: std::path::PathBuf,
}

impl CheckpointWal {
    /// Creates (truncating) a fresh WAL and writes its header record.
    pub(crate) fn create(path: &Path, fingerprint: u64) -> Result<Self, GridError> {
        let file = File::create(path).map_err(|e| ckpt_err(path, e))?;
        let mut wal = CheckpointWal {
            file,
            path: path.to_path_buf(),
        };
        wal.append_record(&header_payload(fingerprint))?;
        Ok(wal)
    }

    /// Opens an existing WAL, replays its valid record prefix, truncates
    /// any torn tail, and returns the journaled `(index, output)` cells.
    ///
    /// A missing or empty file is treated as a fresh run (a new WAL is
    /// created), so `--resume` is safe on the very first attempt. A header
    /// written by a different (spec, grid) identity is refused.
    pub(crate) fn resume(
        path: &Path,
        fingerprint: u64,
    ) -> Result<(Self, Vec<(usize, ItemOutput)>), GridError> {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(ckpt_err(path, e)),
        };

        let mut cells = Vec::new();
        let mut offset = 0usize;
        let mut valid_len = 0usize;
        let mut saw_header = false;
        while bytes.len() - offset >= 8 {
            let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes"));
            let crc =
                u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().expect("4 bytes"));
            if len > MAX_RECORD_LEN {
                break; // Garbage length field: torn/corrupt tail.
            }
            let end = offset + 8 + len as usize;
            if end > bytes.len() {
                break; // Truncated payload: torn tail.
            }
            let payload = &bytes[offset + 8..end];
            if crc32(payload) != crc {
                break; // Checksum mismatch: torn or bit-rotted tail.
            }
            // A record that passes its checksum but does not decode is not
            // a torn tail — it is a format mismatch, and recomputing over
            // it could silently shadow real results. Refuse loudly.
            let text = std::str::from_utf8(payload)
                .map_err(|_| ckpt_err(path, "record payload is not UTF-8"))?;
            let record = Json::parse(text)
                .map_err(|e| ckpt_err(path, format!("record payload is not JSON: {e}")))?;
            match dec_str(&record, "type").map_err(|e| ckpt_err(path, e))? {
                "header" => {
                    let schema = dec_str(&record, "schema").map_err(|e| ckpt_err(path, e))?;
                    if schema != CHECKPOINT_SCHEMA {
                        return Err(ckpt_err(path, format!("unsupported schema {schema:?}")));
                    }
                    let stamp = dec_u64(&record, "fingerprint").map_err(|e| ckpt_err(path, e))?;
                    if stamp != fingerprint {
                        return Err(ckpt_err(
                            path,
                            "fingerprint mismatch: checkpoint was written by a different \
                             spec or grid; rerun without --resume to start over",
                        ));
                    }
                    saw_header = true;
                }
                "cell" => {
                    if !saw_header {
                        return Err(ckpt_err(path, "cell record before header"));
                    }
                    let index = dec_usize(&record, "index").map_err(|e| ckpt_err(path, e))?;
                    let output = record
                        .get("output")
                        .ok_or_else(|| ckpt_err(path, "cell record missing output"))
                        .and_then(|o| decode_output(o).map_err(|e| ckpt_err(path, e)))?;
                    cells.push((index, output));
                }
                // Seals are informational; replay past them so a WAL sealed
                // by a graceful shutdown still resumes.
                "seal" => {}
                other => {
                    return Err(ckpt_err(path, format!("unknown record type {other:?}")));
                }
            }
            offset = end;
            valid_len = end;
        }

        if !saw_header {
            // Nothing usable on disk (missing, empty, or torn before the
            // header finished): start a fresh WAL.
            return Ok((CheckpointWal::create(path, fingerprint)?, Vec::new()));
        }

        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| ckpt_err(path, e))?;
        file.set_len(valid_len as u64)
            .map_err(|e| ckpt_err(path, e))?;
        let mut wal = CheckpointWal {
            file,
            path: path.to_path_buf(),
        };
        wal.file
            .seek(SeekFrom::End(0))
            .map_err(|e| ckpt_err(&wal.path, e))?;
        Ok((wal, cells))
    }

    /// Journals one completed cell.
    pub(crate) fn append_cell(
        &mut self,
        index: usize,
        output: &ItemOutput,
    ) -> Result<(), GridError> {
        let payload = Json::obj(vec![
            ("type", Json::str("cell")),
            ("index", enc_u64(index as u64)),
            ("output", encode_output(output)),
        ])
        .to_compact();
        self.append_record(&payload)
    }

    /// Appends the final seal record (`reason` is `complete`,
    /// `interrupted`, or `partial`).
    pub(crate) fn seal(&mut self, reason: &str, cells: u64) -> Result<(), GridError> {
        let payload = Json::obj(vec![
            ("type", Json::str("seal")),
            ("reason", Json::str(reason)),
            ("cells", enc_u64(cells)),
        ])
        .to_compact();
        self.append_record(&payload)
    }

    /// Frames, appends, and fsyncs one record.
    fn append_record(&mut self, payload: &str) -> Result<(), GridError> {
        let bytes = payload.as_bytes();
        let len = u32::try_from(bytes.len())
            .ok()
            .filter(|&l| l <= MAX_RECORD_LEN)
            .ok_or_else(|| ckpt_err(&self.path, "record payload too large"))?;
        let mut frame = Vec::with_capacity(8 + bytes.len());
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&crc32(bytes).to_le_bytes());
        frame.extend_from_slice(bytes);
        self.file
            .write_all(&frame)
            // Miri's file-system shim has no fsync; durability is a real-OS
            // concern anyway, so skip the sync under the interpreter.
            .and_then(|()| {
                #[cfg(not(miri))]
                return self.file.sync_data();
                #[cfg(miri)]
                Ok(())
            })
            .map_err(|e| ckpt_err(&self.path, e))
    }
}

fn header_payload(fingerprint: u64) -> String {
    Json::obj(vec![
        ("type", Json::str("header")),
        ("schema", Json::str(CHECKPOINT_SCHEMA)),
        ("fingerprint", enc_u64(fingerprint)),
    ])
    .to_compact()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "sdnav-ckpt-{tag}-{}-{:?}.wal",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn default_grid_fingerprint_is_pinned() {
        // A drift here would make `--resume` refuse every existing WAL.
        let fp = fingerprint(
            &ControllerSpec::opencontrail_3x(),
            &GridSpec::builder().build().unwrap(),
        );
        assert_eq!(fp, 0x0d22_2e12_8d60_dca0);
    }

    fn sample_output() -> ItemOutput {
        ItemOutput::Sim(SimRow {
            x: -0.1,
            topology: SimTopology::Large.name(),
            supervisor_required: true,
            replications: 1,
            cp: Estimate {
                mean: 0.123_456_789_012_345,
                std_error: f64::NAN,
                samples: 1,
            },
            dp: Estimate {
                mean: 1.0,
                std_error: 0.0,
                samples: 1,
            },
            events: u64::MAX - 3,
            analytic_cp: 0.999_999_999_999_9,
            analytic_dp: -0.0,
        })
    }

    fn row(output: &ItemOutput) -> &SimRow {
        match output {
            ItemOutput::Sim(row) => row,
            _ => panic!("expected sim output"),
        }
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn round_trips_bit_exactly_including_nan_and_negative_zero() {
        let original = sample_output();
        let decoded = decode_output(&encode_output(&original)).expect("decodes");
        let (a, b) = (row(&original), row(&decoded));
        assert_eq!(a.x.to_bits(), b.x.to_bits());
        assert_eq!(a.cp.mean.to_bits(), b.cp.mean.to_bits());
        assert_eq!(a.cp.std_error.to_bits(), b.cp.std_error.to_bits());
        assert!(b.cp.std_error.is_nan());
        assert_eq!(a.analytic_dp.to_bits(), b.analytic_dp.to_bits());
        assert!(b.analytic_dp.is_sign_negative());
        assert_eq!(a.events, b.events);
        assert_eq!(a.topology, b.topology);
    }

    #[test]
    fn wal_replays_cells_and_ignores_seal() {
        let path = temp_path("replay");
        let mut wal = CheckpointWal::create(&path, 42).unwrap();
        wal.append_cell(5, &sample_output()).unwrap();
        wal.seal("interrupted", 1).unwrap();
        drop(wal);
        let (_wal, cells) = CheckpointWal::resume(&path, 42).unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].0, 5);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let path = temp_path("torn");
        let mut wal = CheckpointWal::create(&path, 7).unwrap();
        wal.append_cell(0, &sample_output()).unwrap();
        drop(wal);
        let clean_len = std::fs::metadata(&path).unwrap().len();

        // A crash mid-append leaves a torn record: garbage frame bytes.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF, 0x01]);
        std::fs::write(&path, &bytes).unwrap();

        let (mut wal, cells) = CheckpointWal::resume(&path, 7).unwrap();
        assert_eq!(cells.len(), 1, "valid prefix survives the torn tail");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
        // And the truncated WAL accepts appends again.
        wal.append_cell(1, &sample_output()).unwrap();
        drop(wal);
        let (_wal, cells) = CheckpointWal::resume(&path, 7).unwrap();
        assert_eq!(cells.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_payload_recovers_valid_prefix() {
        let path = temp_path("chop");
        let mut wal = CheckpointWal::create(&path, 7).unwrap();
        wal.append_cell(0, &sample_output()).unwrap();
        wal.append_cell(1, &sample_output()).unwrap();
        drop(wal);
        // Chop into the last record's payload (a torn write).
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let (_wal, cells) = CheckpointWal::resume(&path, 7).unwrap();
        assert_eq!(cells.len(), 1, "only the intact record replays");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_payload_checksum_stops_replay() {
        let path = temp_path("flip");
        let mut wal = CheckpointWal::create(&path, 7).unwrap();
        wal.append_cell(0, &sample_output()).unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF; // Flip a payload byte of the last record.
        std::fs::write(&path, &bytes).unwrap();
        let (_wal, cells) = CheckpointWal::resume(&path, 7).unwrap();
        assert!(cells.is_empty(), "corrupt record must not replay");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_mismatch_is_refused() {
        let path = temp_path("fp");
        drop(CheckpointWal::create(&path, 1).unwrap());
        let err = CheckpointWal::resume(&path, 2).unwrap_err();
        assert!(matches!(err, GridError::Checkpoint(_)));
        assert!(err.to_string().contains("fingerprint mismatch"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_resumes_as_fresh_run() {
        let path = temp_path("fresh");
        std::fs::remove_file(&path).ok();
        let (_wal, cells) = CheckpointWal::resume(&path, 9).unwrap();
        assert!(cells.is_empty());
        // The fresh WAL is immediately resumable.
        let (_wal, cells) = CheckpointWal::resume(&path, 9).unwrap();
        assert!(cells.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_ignores_threads_but_not_seed() {
        let spec = ControllerSpec::opencontrail_3x();
        let base = GridSpec::builder().build().unwrap();
        let mut threaded = base.clone();
        threaded.threads = 8;
        assert_eq!(fingerprint(&spec, &base), fingerprint(&spec, &threaded));
        let mut reseeded = base.clone();
        reseeded.seed = base.seed + 1;
        assert_ne!(fingerprint(&spec, &base), fingerprint(&spec, &reseeded));
    }
}
