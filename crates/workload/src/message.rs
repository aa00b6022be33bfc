//! The message tag space: how a closed-loop message rides the flit engine.
//!
//! A *message* is `flits` worth of payload from one endpoint to another.
//! The engine only moves fixed-layout packets, so a message is segmented
//! into packets of at most `SimConfig::packet_len` flits, and every packet
//! carries a compact tag in its 64-bit packet id:
//!
//! ```text
//!   bits 63..56   reserved (must stay clear; `Injector::submit` checks)
//!   bits 55..20   message field         (36 bits)
//!   bits 19..0    packet seq in message (up to 2^20 packets per message)
//! ```
//!
//! A flat message id is a `u32`, so it fills at most the low 32 bits of
//! the 36-bit field; no run holds more than
//! [`MESSAGE_BUDGET`](crate::collective::MESSAGE_BUDGET) (2^22) messages
//! in any case.
//!
//! At the destination the tag is all the reassembly state needed: the
//! driver counts arrived flits per message id ([`Reassembly`]) and declares
//! the message complete when the count reaches its size — the arrival
//! cycle of the last packet's tail flit is the message completion time.
//!
//! Multi-tenant runs partition the 36-bit message field further, into a
//! job id and an intra-job message id:
//!
//! ```text
//!   bits 55..40   job id            (up to 2^16 concurrent jobs)
//!   bits 39..20   intra-job msg id  (up to 2^20 messages per job)
//! ```
//!
//! [`job_packet_id`]/[`job_of`]/[`job_msg_of`] pack and unpack that split;
//! single-job drivers keep using the flat [`packet_id`] form (job id 0).

/// Bits of the packet-sequence field within a packet id.
pub const SEQ_BITS: u32 = 20;

/// Maximum packets per message (`2^SEQ_BITS`).
pub const MAX_PACKETS_PER_MESSAGE: u64 = 1 << SEQ_BITS;

/// Size of the message field of a packet id (it must leave the engine's
/// top 8 id bits clear), which the job and intra-job fields tile. Flat
/// message ids are `u32`, and a run holds at most
/// [`MESSAGE_BUDGET`](crate::collective::MESSAGE_BUDGET) messages.
pub const MAX_MESSAGES: u64 = 1 << (56 - SEQ_BITS);

/// Pack (message id, packet seq) into a packet id.
#[inline]
pub fn packet_id(msg: u32, seq: u64) -> u64 {
    debug_assert!(seq < MAX_PACKETS_PER_MESSAGE);
    debug_assert!((msg as u64) < MAX_MESSAGES);
    ((msg as u64) << SEQ_BITS) | seq
}

/// Message id of a packet id.
#[inline]
pub fn msg_of(id: u64) -> u32 {
    (id >> SEQ_BITS) as u32
}

/// Packet sequence number of a packet id.
#[inline]
pub fn seq_of(id: u64) -> u64 {
    id & (MAX_PACKETS_PER_MESSAGE - 1)
}

/// Bits of the job-id field within a multi-tenant packet id.
pub const JOB_BITS: u32 = 16;

/// Bits of the intra-job message field within a multi-tenant packet id.
pub const INTRA_BITS: u32 = 56 - SEQ_BITS - JOB_BITS;

/// Maximum concurrent jobs per multi-tenant run (`2^JOB_BITS`).
pub const MAX_JOBS: u64 = 1 << JOB_BITS;

/// Maximum messages per job (`2^INTRA_BITS`).
pub const MAX_JOB_MESSAGES: u64 = 1 << INTRA_BITS;

/// Pack (job id, intra-job message id, packet seq) into a packet id.
#[inline]
pub fn job_packet_id(job: u32, msg: u32, seq: u64) -> u64 {
    debug_assert!((job as u64) < MAX_JOBS);
    debug_assert!((msg as u64) < MAX_JOB_MESSAGES);
    debug_assert!(seq < MAX_PACKETS_PER_MESSAGE);
    ((job as u64) << (INTRA_BITS + SEQ_BITS)) | ((msg as u64) << SEQ_BITS) | seq
}

/// Job id of a multi-tenant packet id.
#[inline]
pub fn job_of(id: u64) -> u32 {
    (id >> (INTRA_BITS + SEQ_BITS)) as u32
}

/// Intra-job message id of a multi-tenant packet id.
#[inline]
pub fn job_msg_of(id: u64) -> u32 {
    ((id >> SEQ_BITS) & (MAX_JOB_MESSAGES - 1)) as u32
}

/// Segment a message of `flits` flits into engine packets of at most
/// `packet_len` flits: full packets first, then one remainder packet.
/// Yields `(packet seq, packet flits)`.
pub fn segments(flits: u64, packet_len: u8) -> impl Iterator<Item = (u64, u8)> {
    let len = packet_len.max(1) as u64;
    let full = flits / len;
    let rem = (flits % len) as u8;
    (0..full)
        .map(move |s| (s, len as u8))
        .chain((rem > 0).then_some((full, rem)))
}

/// Number of packets a message of `flits` flits segments into.
pub fn packet_count(flits: u64, packet_len: u8) -> u64 {
    let len = packet_len.max(1) as u64;
    flits.div_ceil(len)
}

/// Per-message flit reassembly counters at the destination endpoints.
///
/// Arrival events are counted per packet (at the packet's tail — the last
/// of its flits on the wire), so reassembly is exact and order-independent
/// within a cycle: a message completes at the *maximum* arrival cycle over
/// its packets, whatever order the events are observed in.
#[derive(Debug, Clone)]
pub struct Reassembly {
    /// Flits not yet arrived, per message.
    remaining: Vec<u64>,
    /// Latest packet-arrival cycle seen so far, per message.
    last_arrival: Vec<u64>,
}

impl Reassembly {
    /// Trackers for messages of the given sizes (flits), in message-id
    /// order.
    pub fn new(sizes: impl IntoIterator<Item = u64>) -> Self {
        let remaining: Vec<u64> = sizes.into_iter().collect();
        Reassembly {
            last_arrival: vec![0; remaining.len()],
            remaining,
        }
    }

    /// Record the arrival of one packet (`flits` flits of message `msg`,
    /// tail arriving at cycle `arrive`). Returns the message completion
    /// cycle when this packet was the last one outstanding.
    ///
    /// # Panics
    /// If the message over-delivers (more flits arrive than its size) —
    /// that would mean a duplicated or misrouted packet.
    pub fn on_packet(&mut self, msg: u32, flits: u8, arrive: u64) -> Option<u64> {
        let m = msg as usize;
        let rem = &mut self.remaining[m];
        assert!(
            *rem >= flits as u64,
            "message {msg} over-delivered: {flits} flits arrived with {rem} outstanding"
        );
        *rem -= flits as u64;
        let last = &mut self.last_arrival[m];
        *last = (*last).max(arrive);
        (*rem == 0).then_some(*last)
    }

    /// Flits still outstanding for `msg`.
    pub fn remaining(&self, msg: u32) -> u64 {
        self.remaining[msg as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_roundtrip() {
        for (m, s) in [(0u32, 0u64), (1, 7), (0xAB_CDEF, 0xF_FFFF)] {
            let id = packet_id(m, s);
            assert_eq!(msg_of(id), m);
            assert_eq!(seq_of(id), s);
            // The reserved top 8 bits stay clear.
            assert_eq!(id >> 56, 0);
        }
    }

    #[test]
    fn job_tag_roundtrip() {
        for (j, m, s) in [
            (0u32, 0u32, 0u64),
            (1, 2, 3),
            (0xFFFF, 0xF_FFFF, 0xF_FFFF),
            (42, 0, 19),
        ] {
            let id = job_packet_id(j, m, s);
            assert_eq!(job_of(id), j);
            assert_eq!(job_msg_of(id), m);
            assert_eq!(seq_of(id), s);
            // The reserved top 8 bits stay clear even at the field maxima.
            assert_eq!(id >> 56, 0);
        }
        // Job 0 coincides with the flat single-job tag space.
        assert_eq!(job_packet_id(0, 7, 3), packet_id(7, 3));
        // Field widths tile the 36-bit message field exactly.
        assert_eq!(JOB_BITS + INTRA_BITS + SEQ_BITS, 56);
        assert_eq!(MAX_JOBS * MAX_JOB_MESSAGES, MAX_MESSAGES);
    }

    #[test]
    fn segmentation_covers_exactly() {
        for flits in [1u64, 3, 4, 5, 8, 17, 1000] {
            for len in [1u8, 3, 4, 8] {
                let segs: Vec<(u64, u8)> = segments(flits, len).collect();
                assert_eq!(segs.len() as u64, packet_count(flits, len));
                let total: u64 = segs.iter().map(|&(_, l)| l as u64).sum();
                assert_eq!(total, flits, "flits={flits} len={len}");
                for (i, &(seq, l)) in segs.iter().enumerate() {
                    assert_eq!(seq, i as u64);
                    assert!(l >= 1 && l <= len);
                }
                // Only the last packet may be short.
                for &(_, l) in &segs[..segs.len() - 1] {
                    assert_eq!(l, len);
                }
            }
        }
    }

    #[test]
    fn reassembly_completes_at_last_arrival() {
        let mut r = Reassembly::new([10, 4]);
        assert_eq!(r.on_packet(0, 4, 100), None);
        assert_eq!(r.on_packet(0, 4, 105), None);
        assert_eq!(r.remaining(0), 2);
        // Events may be observed out of arrival order across cycles of
        // different packets; completion is the max.
        assert_eq!(r.on_packet(0, 2, 103), Some(105));
        assert_eq!(r.on_packet(1, 4, 7), Some(7));
    }

    #[test]
    #[should_panic(expected = "over-delivered")]
    fn reassembly_rejects_duplicates() {
        let mut r = Reassembly::new([4]);
        r.on_packet(0, 4, 10);
        r.on_packet(0, 4, 11);
    }
}
