//! Cluster-tier ↔ job-tier wire protocol.
//!
//! The paper's implementation connects one cluster-level power budgeter to
//! one job-tier power-modeling process per job over TCP (Fig. 2): power
//! budgets flow down, power models and epoch samples flow up. The message
//! set here mirrors that design, with the timestamping the authors added
//! to reconcile tiers running control loops at different rates
//! (Section 7.2).
//!
//! Framing is a hand-rolled length-prefixed binary codec (over [`bytes`])
//! rather than a serde format crate: a `u32` big-endian payload length,
//! then a one-byte message tag, then fixed-width big-endian fields
//! (strings are `u16`-length-prefixed UTF-8).
//!
//! # Codec versioning
//!
//! Version 2 of the codec added causal-tracing context: `SetPowerCap`,
//! `Sample` and `Model` carry the `CauseId` of the budgeter rebalance
//! decision they descend from. Rather than a connection-level version
//! handshake, the extended messages use **new tags** (`SetPowerCap` v2 =
//! tag 4, `Sample` v2 = tag 5, `Model` v2 = tag 6). The v1 tags they
//! replaced no longer decode (see [`ClusterToJob::decode`]).
//!
//! The session-resume handshake (`Resume` = job tag 7, `ResumeAck` =
//! cluster tag 5) rides the same scheme: fresh tags.

use crate::curve::PowerCurve;
use crate::error::AnorError;
use crate::ids::JobId;
use crate::units::{Joules, Seconds, Watts};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Upper bound on a sane frame, to reject corrupt length prefixes before
/// allocating.
pub const MAX_FRAME_LEN: usize = 64 * 1024;

/// Current codec version. Bumped to 2 when cause ids were added to
/// `SetPowerCap`/`Sample`/`Model`; encoders and decoders speak only the
/// current version.
pub const CODEC_VERSION: u8 = 2;

/// One job-progress observation flowing up from the GEOPM agent through
/// the job-tier modeler to the cluster tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochSample {
    /// Job the sample belongs to.
    pub job: JobId,
    /// Cumulative count of `geopm_prof_epoch()` completions across all of
    /// the job's processes.
    pub epoch_count: u64,
    /// Cumulative CPU package energy consumed by the job's nodes.
    pub energy: Joules,
    /// Average power over the sampling window.
    pub avg_power: Watts,
    /// Average power cap applied over the window (what the modeler
    /// correlates epoch time against, Section 4.2).
    pub avg_cap: Watts,
    /// Job-tier local timestamp of the observation; lets the cluster tier
    /// align samples from tiers running control loops at different rates.
    pub timestamp: Seconds,
    /// Causal-trace id of the budgeter decision whose cap was in force
    /// when the sample was taken (`0` = unknown: pre-cap samples).
    pub cause: u64,
}

/// Messages the cluster tier sends to a job-tier endpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterToJob {
    /// New per-node power budget for the job (Fig. 2: "Job Power Budgets").
    SetPowerCap {
        /// Per-node cap in watts.
        cap: Watts,
        /// Causal-trace id of the rebalance decision that produced this
        /// cap (`0` = untraced).
        cause: u64,
    },
    /// Ask the endpoint to report its latest sample immediately.
    RequestSample,
    /// The budgeter is shutting down or the job was cancelled.
    Shutdown,
    /// Reply to a [`JobToCluster::Resume`]: re-syncs the cap the budgeter
    /// holds on record for the job so a `SetPowerCap` lost to the
    /// disconnect is replayed rather than dropped.
    ResumeAck {
        /// Per-node cap currently on record. A non-positive value means
        /// the budgeter has no cap on record (e.g. it restarted and lost
        /// state); the endpoint keeps its believed cap until the next
        /// rebalance sends a fresh `SetPowerCap`.
        cap: Watts,
        /// Causal-trace id of the decision that produced the cap (`0` =
        /// none on record).
        cause: u64,
    },
}

/// Messages a job-tier endpoint sends to the cluster tier.
#[derive(Debug, Clone, PartialEq)]
pub enum JobToCluster {
    /// First message on a fresh connection: identify the job.
    Hello {
        /// Cluster-assigned job id.
        job: JobId,
        /// Job-type name hint (may be unknown/misclassified — that is the
        /// point of Section 6.1.2).
        type_name: String,
        /// Number of compute nodes the job occupies.
        nodes: u32,
    },
    /// Periodic progress sample.
    Sample(EpochSample),
    /// A freshly (re-)trained power-performance model (Fig. 2: "Power
    /// Modeler" sends models up).
    Model {
        /// Job id the model describes.
        job: JobId,
        /// Per-epoch quadratic model.
        curve: PowerCurve,
        /// How many epoch observations the fit used.
        samples: u32,
        /// Causal-trace id of the decision whose cap the retrain
        /// observed (`0` = unknown).
        cause: u64,
    },
    /// Job finished; final report data.
    Done {
        /// Job id.
        job: JobId,
        /// Wall-clock the application section ran (the "Application
        /// Totals" figure from GEOPM reports).
        elapsed: Seconds,
    },
    /// First message on a *re-established* connection: re-register the
    /// job and report the cap the endpoint still believes, so the
    /// budgeter can restore a reclaimed lease and re-sync the cap via
    /// [`ClusterToJob::ResumeAck`].
    Resume {
        /// Cluster-assigned job id (unchanged across reconnects).
        job: JobId,
        /// Announced job-type name, replayed from the original hello.
        type_name: String,
        /// Number of compute nodes the job occupies.
        nodes: u32,
        /// Per-node cap the endpoint was enforcing when the connection
        /// dropped (non-positive = it never received one).
        believed_cap: Watts,
        /// Causal-trace id of the decision behind `believed_cap` (`0` =
        /// none).
        cause: u64,
    },
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

fn put_string(buf: &mut BytesMut, s: &str) {
    // Truncate oversize strings at a char boundary: a too-long type name
    // must not corrupt the frame in release builds.
    let mut end = s.len().min(u16::MAX as usize);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    buf.put_u16(end as u16);
    buf.put_slice(&s.as_bytes()[..end]);
}

fn get_string(buf: &mut Bytes) -> Result<String, AnorError> {
    if buf.remaining() < 2 {
        return Err(AnorError::protocol("truncated string length"));
    }
    let len = buf.get_u16() as usize;
    if buf.remaining() < len {
        return Err(AnorError::protocol("truncated string body"));
    }
    let raw = buf.split_to(len);
    String::from_utf8(raw.to_vec()).map_err(|_| AnorError::protocol("invalid UTF-8 in string"))
}

fn put_curve(buf: &mut BytesMut, c: &PowerCurve) {
    buf.put_f64(c.a);
    buf.put_f64(c.b);
    buf.put_f64(c.c);
}

fn get_curve(buf: &mut Bytes) -> Result<PowerCurve, AnorError> {
    if buf.remaining() < 24 {
        return Err(AnorError::protocol("truncated curve"));
    }
    Ok(PowerCurve::new(buf.get_f64(), buf.get_f64(), buf.get_f64()))
}

fn need(buf: &Bytes, n: usize, what: &str) -> Result<(), AnorError> {
    if buf.remaining() < n {
        Err(AnorError::protocol(format!("truncated {what}")))
    } else {
        Ok(())
    }
}

impl ClusterToJob {
    /// Encode into a length-prefixed frame.
    pub fn encode(&self) -> Bytes {
        let mut body = BytesMut::with_capacity(24);
        match self {
            ClusterToJob::SetPowerCap { cap, cause } => {
                body.put_u8(4);
                body.put_f64(cap.value());
                body.put_u64(*cause);
            }
            ClusterToJob::RequestSample => body.put_u8(2),
            ClusterToJob::Shutdown => body.put_u8(3),
            ClusterToJob::ResumeAck { cap, cause } => {
                body.put_u8(5);
                body.put_f64(cap.value());
                body.put_u64(*cause);
            }
        }
        frame(body)
    }

    /// Decode a frame body (length prefix already stripped).
    ///
    /// Codec-v1 tags (`ClusterToJob` 1, `JobToCluster` 2 and 3) are
    /// retired: they fail as unknown tags and must not be reused, so a
    /// stray v1 frame can never decode as some newer message.
    pub fn decode(mut body: Bytes) -> Result<Self, AnorError> {
        need(&body, 1, "tag")?;
        match body.get_u8() {
            2 => Ok(ClusterToJob::RequestSample),
            3 => Ok(ClusterToJob::Shutdown),
            4 => {
                need(&body, 16, "SetPowerCap v2")?;
                Ok(ClusterToJob::SetPowerCap {
                    cap: Watts(body.get_f64()),
                    cause: body.get_u64(),
                })
            }
            5 => {
                need(&body, 16, "ResumeAck")?;
                Ok(ClusterToJob::ResumeAck {
                    cap: Watts(body.get_f64()),
                    cause: body.get_u64(),
                })
            }
            t => Err(AnorError::protocol(format!("unknown ClusterToJob tag {t}"))),
        }
    }
}

impl JobToCluster {
    /// Encode into a length-prefixed frame.
    pub fn encode(&self) -> Bytes {
        let mut body = BytesMut::with_capacity(64);
        match self {
            JobToCluster::Hello {
                job,
                type_name,
                nodes,
            } => {
                body.put_u8(1);
                body.put_u64(job.0);
                put_string(&mut body, type_name);
                body.put_u32(*nodes);
            }
            JobToCluster::Sample(s) => {
                body.put_u8(5);
                body.put_u64(s.job.0);
                body.put_u64(s.epoch_count);
                body.put_f64(s.energy.value());
                body.put_f64(s.avg_power.value());
                body.put_f64(s.avg_cap.value());
                body.put_f64(s.timestamp.value());
                body.put_u64(s.cause);
            }
            JobToCluster::Model {
                job,
                curve,
                samples,
                cause,
            } => {
                body.put_u8(6);
                body.put_u64(job.0);
                put_curve(&mut body, curve);
                body.put_u32(*samples);
                body.put_u64(*cause);
            }
            JobToCluster::Done { job, elapsed } => {
                body.put_u8(4);
                body.put_u64(job.0);
                body.put_f64(elapsed.value());
            }
            JobToCluster::Resume {
                job,
                type_name,
                nodes,
                believed_cap,
                cause,
            } => {
                body.put_u8(7);
                body.put_u64(job.0);
                put_string(&mut body, type_name);
                body.put_u32(*nodes);
                body.put_f64(believed_cap.value());
                body.put_u64(*cause);
            }
        }
        frame(body)
    }

    /// Decode a frame body (length prefix already stripped). Tags 2
    /// and 3 are retired codec-v1 tags; see [`ClusterToJob::decode`].
    pub fn decode(mut body: Bytes) -> Result<Self, AnorError> {
        need(&body, 1, "tag")?;
        match body.get_u8() {
            1 => {
                need(&body, 8, "Hello job id")?;
                let job = JobId(body.get_u64());
                let type_name = get_string(&mut body)?;
                need(&body, 4, "Hello nodes")?;
                Ok(JobToCluster::Hello {
                    job,
                    type_name,
                    nodes: body.get_u32(),
                })
            }
            4 => {
                need(&body, 16, "Done")?;
                Ok(JobToCluster::Done {
                    job: JobId(body.get_u64()),
                    elapsed: Seconds(body.get_f64()),
                })
            }
            5 => {
                need(&body, 8 * 7, "Sample v2")?;
                Ok(JobToCluster::Sample(EpochSample {
                    job: JobId(body.get_u64()),
                    epoch_count: body.get_u64(),
                    energy: Joules(body.get_f64()),
                    avg_power: Watts(body.get_f64()),
                    avg_cap: Watts(body.get_f64()),
                    timestamp: Seconds(body.get_f64()),
                    cause: body.get_u64(),
                }))
            }
            6 => {
                need(&body, 8, "Model v2 job id")?;
                let job = JobId(body.get_u64());
                let curve = get_curve(&mut body)?;
                need(&body, 12, "Model v2 samples+cause")?;
                Ok(JobToCluster::Model {
                    job,
                    curve,
                    samples: body.get_u32(),
                    cause: body.get_u64(),
                })
            }
            7 => {
                need(&body, 8, "Resume job id")?;
                let job = JobId(body.get_u64());
                let type_name = get_string(&mut body)?;
                need(&body, 4 + 8 + 8, "Resume nodes+cap+cause")?;
                Ok(JobToCluster::Resume {
                    job,
                    type_name,
                    nodes: body.get_u32(),
                    believed_cap: Watts(body.get_f64()),
                    cause: body.get_u64(),
                })
            }
            t => Err(AnorError::protocol(format!("unknown JobToCluster tag {t}"))),
        }
    }
}

/// Prepend the `u32` length prefix to a message body.
fn frame(body: BytesMut) -> Bytes {
    let mut out = BytesMut::with_capacity(4 + body.len());
    out.put_u32(body.len() as u32);
    out.extend_from_slice(&body);
    out.freeze()
}

/// Try to pull one complete frame body out of an accumulation buffer.
/// Returns `Ok(None)` when more bytes are needed; on success the consumed
/// bytes are removed from `buf`.
pub fn take_frame(buf: &mut BytesMut) -> Result<Option<Bytes>, AnorError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(AnorError::protocol(format!(
            "frame length {len} exceeds max {MAX_FRAME_LEN}"
        )));
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    buf.advance(4);
    Ok(Some(buf.split_to(len).freeze()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strip_len(frame: Bytes) -> Bytes {
        let mut b = frame;
        b.advance(4);
        b
    }

    fn sample() -> EpochSample {
        EpochSample {
            job: JobId(42),
            epoch_count: 137,
            energy: Joules(12_345.5),
            avg_power: Watts(201.25),
            avg_cap: Watts(210.0),
            timestamp: Seconds(98.75),
            cause: 31_337,
        }
    }

    #[test]
    fn cluster_to_job_round_trips() {
        let msgs = [
            ClusterToJob::SetPowerCap {
                cap: Watts(187.5),
                cause: 99,
            },
            ClusterToJob::RequestSample,
            ClusterToJob::Shutdown,
            ClusterToJob::ResumeAck {
                cap: Watts(192.5),
                cause: 1234,
            },
        ];
        for m in msgs {
            let decoded = ClusterToJob::decode(strip_len(m.encode())).unwrap();
            assert_eq!(decoded, m);
        }
    }

    #[test]
    fn job_to_cluster_round_trips() {
        let msgs = [
            JobToCluster::Hello {
                job: JobId(7),
                type_name: "bt.D.81".into(),
                nodes: 2,
            },
            JobToCluster::Sample(sample()),
            JobToCluster::Model {
                job: JobId(7),
                curve: PowerCurve::new(1.25e-5, -0.007, 1.9),
                samples: 23,
                cause: 512,
            },
            JobToCluster::Done {
                job: JobId(7),
                elapsed: Seconds(612.5),
            },
            JobToCluster::Resume {
                job: JobId(7),
                type_name: "bt.D.81".into(),
                nodes: 2,
                believed_cap: Watts(187.5),
                cause: 4096,
            },
        ];
        for m in msgs {
            let decoded = JobToCluster::decode(strip_len(m.encode())).unwrap();
            assert_eq!(decoded, m);
        }
    }

    // ---- session resume handshake -------------------------------------

    #[test]
    fn resume_without_believed_cap_round_trips() {
        let m = JobToCluster::Resume {
            job: JobId(3),
            type_name: "unknown".into(),
            nodes: 4,
            believed_cap: Watts(-1.0),
            cause: 0,
        };
        assert_eq!(JobToCluster::decode(strip_len(m.encode())).unwrap(), m);
    }

    #[test]
    fn truncated_resume_frames_rejected() {
        // A Resume cut off before the believed cap.
        let mut body = BytesMut::new();
        body.put_u8(7);
        body.put_u64(3);
        body.put_u16(2);
        body.put_slice(b"bt");
        body.put_u32(4);
        assert!(JobToCluster::decode(body.freeze()).is_err());
        // A ResumeAck missing its cause.
        let mut body = BytesMut::new();
        body.put_u8(5);
        body.put_f64(187.5);
        assert!(ClusterToJob::decode(body.freeze()).is_err());
    }

    // ---- codec version bump (v1 → v2) --------------------------------

    #[test]
    fn v2_frames_preserve_cause_exactly() {
        let m = ClusterToJob::SetPowerCap {
            cap: Watts(205.0),
            cause: u64::MAX,
        };
        assert_eq!(ClusterToJob::decode(strip_len(m.encode())).unwrap(), m);
        let m = JobToCluster::Sample(EpochSample {
            cause: u64::MAX - 1,
            ..sample()
        });
        assert_eq!(JobToCluster::decode(strip_len(m.encode())).unwrap(), m);
        assert_eq!(CODEC_VERSION, 2);
    }

    #[test]
    fn truncated_v2_bodies_rejected() {
        // A v2 SetPowerCap missing its cause field.
        let mut body = BytesMut::new();
        body.put_u8(4);
        body.put_f64(187.5);
        assert!(ClusterToJob::decode(body.freeze()).is_err());
        // A v2 Model cut off before the cause.
        let mut body = BytesMut::new();
        body.put_u8(6);
        body.put_u64(7);
        body.put_f64(0.0);
        body.put_f64(0.0);
        body.put_f64(0.0);
        body.put_u32(23);
        assert!(JobToCluster::decode(body.freeze()).is_err());
    }

    #[test]
    fn oversize_strings_truncate_instead_of_corrupting() {
        let long = "x".repeat(u16::MAX as usize + 100);
        let m = JobToCluster::Hello {
            job: JobId(1),
            type_name: long,
            nodes: 1,
        };
        let decoded = JobToCluster::decode(strip_len(m.encode())).unwrap();
        let JobToCluster::Hello { type_name, .. } = decoded else {
            panic!("expected Hello");
        };
        assert_eq!(type_name.len(), u16::MAX as usize);
    }

    #[test]
    fn take_frame_handles_partial_input() {
        let full = JobToCluster::Done {
            job: JobId(1),
            elapsed: Seconds(5.0),
        }
        .encode();
        let mut buf = BytesMut::new();
        // Feed one byte at a time; frame only appears once complete.
        for (i, b) in full.iter().enumerate() {
            buf.put_u8(*b);
            let got = take_frame(&mut buf).unwrap();
            if i + 1 < full.len() {
                assert!(got.is_none(), "premature frame at byte {i}");
            } else {
                let body = got.expect("complete frame");
                assert!(matches!(
                    JobToCluster::decode(body).unwrap(),
                    JobToCluster::Done { .. }
                ));
            }
        }
        assert!(buf.is_empty());
    }

    #[test]
    fn take_frame_yields_multiple_frames() {
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&ClusterToJob::RequestSample.encode());
        buf.extend_from_slice(&ClusterToJob::Shutdown.encode());
        let a = take_frame(&mut buf).unwrap().unwrap();
        let b = take_frame(&mut buf).unwrap().unwrap();
        assert_eq!(
            ClusterToJob::decode(a).unwrap(),
            ClusterToJob::RequestSample
        );
        assert_eq!(ClusterToJob::decode(b).unwrap(), ClusterToJob::Shutdown);
        assert!(take_frame(&mut buf).unwrap().is_none());
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32((MAX_FRAME_LEN + 1) as u32);
        buf.put_u8(0);
        assert!(take_frame(&mut buf).is_err());
    }

    #[test]
    fn unknown_tag_rejected() {
        // The retired codec-v1 tags are unknown too. The zero padding is
        // long enough for any message body, so only the tag can fail.
        let tagged = |tag: u8| {
            let mut body = BytesMut::new();
            body.put_u8(tag);
            body.put_slice(&[0; 64]);
            body.freeze()
        };
        for tag in [1, 99] {
            assert!(ClusterToJob::decode(tagged(tag)).is_err(), "tag {tag}");
        }
        for tag in [2, 3, 99] {
            assert!(JobToCluster::decode(tagged(tag)).is_err(), "tag {tag}");
        }
    }

    #[test]
    fn truncated_bodies_rejected() {
        // A SetPowerCap tag with no payload.
        let mut body = BytesMut::new();
        body.put_u8(4);
        assert!(ClusterToJob::decode(body.freeze()).is_err());
        // A Hello with a string length pointing past the end.
        let mut body = BytesMut::new();
        body.put_u8(1);
        body.put_u64(1);
        body.put_u16(200); // claims 200 bytes of name
        body.put_slice(b"short");
        assert!(JobToCluster::decode(body.freeze()).is_err());
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut body = BytesMut::new();
        body.put_u8(1);
        body.put_u64(1);
        body.put_u16(2);
        body.put_slice(&[0xff, 0xfe]);
        body.put_u32(1);
        assert!(JobToCluster::decode(body.freeze()).is_err());
    }

    #[test]
    fn empty_frame_body_rejected() {
        assert!(ClusterToJob::decode(Bytes::new()).is_err());
        assert!(JobToCluster::decode(Bytes::new()).is_err());
    }
}
