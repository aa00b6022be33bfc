//! Flits and packet headers.
//!
//! Packets are fixed-length flit sequences (4 flits by default, Table IV).
//! A [`Flit`] is 32 bytes: the [`PacketHeader`] fields laid out flat beside
//! the flit's [`FlitKind`], with no padding between them. A flit is
//! written once into its partition's flit pool and stays in its slot while
//! it crosses partition-local channels, whose rings carry 16-byte slot
//! indices; only a hop into another partition copies it, into a 48-byte
//! mailbox message. Routing state can still be rebuilt at any hop without
//! a side table ([`Flit::header`]), so the engine never needs a global
//! packet map on the hot path.

/// Sentinel for "no intermediate W-group" (minimal routing).
pub const NO_INTERMEDIATE: u32 = u32::MAX;

/// Position of a flit within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlitKind {
    /// First flit; triggers route computation and VC allocation.
    Head,
    /// Interior flit.
    Body,
    /// Last flit; releases the allocated VC downstream.
    Tail,
    /// Single-flit packet (head and tail at once).
    Single,
}

impl FlitKind {
    /// Does this flit open a packet (head or single)?
    #[inline]
    pub fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::Single)
    }

    /// Does this flit close a packet (tail or single)?
    #[inline]
    pub fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::Single)
    }

    /// Kind of the flit at `seq` within a packet of `len` flits.
    #[inline]
    pub fn at(seq: u8, len: u8) -> Self {
        debug_assert!(len >= 1 && seq < len);
        match (seq, len) {
            (0, 1) => FlitKind::Single,
            (0, _) => FlitKind::Head,
            (s, l) if s + 1 == l => FlitKind::Tail,
            _ => FlitKind::Body,
        }
    }
}

/// Per-packet routing header, copied into every flit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketHeader {
    /// Globally unique packet id (monotone per endpoint, endpoint in high bits).
    pub id: u64,
    /// Source endpoint index.
    pub src: u32,
    /// Destination endpoint index.
    pub dst: u32,
    /// Intermediate W-group for non-minimal (Valiant) routing, or
    /// [`NO_INTERMEDIATE`].
    pub inter_w: u32,
    /// Cycle at which the packet was created (entered the source queue).
    pub created: u64,
    /// Packet length in flits.
    pub len: u8,
}

impl PacketHeader {
    /// True if the packet was tagged for non-minimal routing.
    #[inline]
    pub fn is_nonminimal(&self) -> bool {
        self.inter_w != NO_INTERMEDIATE
    }
}

/// The unit of transfer and buffering: the owning packet's header fields,
/// flat, plus the flit's position within the packet.
#[derive(Debug, Clone, Copy)]
pub struct Flit {
    /// [`PacketHeader::id`].
    pub id: u64,
    /// [`PacketHeader::created`].
    pub created: u64,
    /// [`PacketHeader::src`].
    pub src: u32,
    /// [`PacketHeader::dst`].
    pub dst: u32,
    /// [`PacketHeader::inter_w`].
    pub inter_w: u32,
    /// [`PacketHeader::len`].
    pub len: u8,
    /// Position within the packet.
    pub kind: FlitKind,
}

const _: () = assert!(std::mem::size_of::<Flit>() == 32);

impl Flit {
    /// Build the `seq`-th flit of the packet described by `pkt`.
    #[inline]
    pub fn new(pkt: PacketHeader, seq: u8) -> Self {
        Flit {
            id: pkt.id,
            created: pkt.created,
            src: pkt.src,
            dst: pkt.dst,
            inter_w: pkt.inter_w,
            len: pkt.len,
            kind: FlitKind::at(seq, pkt.len),
        }
    }

    /// The owning packet's header, rebuilt from the flat fields.
    #[inline]
    pub fn header(&self) -> PacketHeader {
        PacketHeader {
            id: self.id,
            src: self.src,
            dst: self.dst,
            inter_w: self.inter_w,
            created: self.created,
            len: self.len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(len: u8) -> PacketHeader {
        PacketHeader {
            id: 1,
            src: 0,
            dst: 5,
            inter_w: NO_INTERMEDIATE,
            created: 0,
            len,
        }
    }

    #[test]
    fn kind_at_positions() {
        assert_eq!(FlitKind::at(0, 1), FlitKind::Single);
        assert_eq!(FlitKind::at(0, 4), FlitKind::Head);
        assert_eq!(FlitKind::at(1, 4), FlitKind::Body);
        assert_eq!(FlitKind::at(2, 4), FlitKind::Body);
        assert_eq!(FlitKind::at(3, 4), FlitKind::Tail);
    }

    #[test]
    fn head_tail_predicates() {
        assert!(FlitKind::Head.is_head());
        assert!(FlitKind::Single.is_head());
        assert!(FlitKind::Single.is_tail());
        assert!(FlitKind::Tail.is_tail());
        assert!(!FlitKind::Body.is_head());
        assert!(!FlitKind::Body.is_tail());
        assert!(!FlitKind::Head.is_tail());
    }

    #[test]
    fn packet_flit_sequence_is_well_formed() {
        let pkt = header(4);
        let flits: Vec<Flit> = (0..4).map(|s| Flit::new(pkt, s)).collect();
        assert!(flits[0].kind.is_head());
        assert!(flits[3].kind.is_tail());
        assert_eq!(flits.iter().filter(|f| f.kind.is_head()).count(), 1);
        assert_eq!(flits.iter().filter(|f| f.kind.is_tail()).count(), 1);
        assert!(flits.iter().all(|f| f.header() == pkt));
    }

    #[test]
    fn minimal_flag() {
        let mut pkt = header(4);
        assert!(!pkt.is_nonminimal());
        pkt.inter_w = 3;
        assert!(pkt.is_nonminimal());
    }
}
