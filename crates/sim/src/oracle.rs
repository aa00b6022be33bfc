//! Routing interface between the engine and routing algorithms.
//!
//! The engine is topology-agnostic: at every head flit it asks the oracle
//! where to go next. Oracles are immutable and `Sync` so the BSP engine can
//! query them from every partition concurrently. All adaptivity must be a
//! pure function of (router, input port, header, RNG draw) — the RNG stream
//! passed in is the per-router deterministic stream, keeping parallel and
//! sequential runs identical.

use crate::flit::PacketHeader;
use crate::rng::SplitMix64;

/// Routing decision for a head flit: the output port and the exact VC to
/// request on it. Returning the precise VC (rather than a class) keeps the
/// engine simple; VC *policies* live inside the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteChoice {
    /// Output port of the current router.
    pub out_port: u8,
    /// Virtual channel to allocate on that port.
    pub out_vc: u8,
}

/// A routing algorithm + VC discipline for a specific network.
pub trait RouteOracle: Sync + Send {
    /// Route the packet with header `pkt` sitting at `router`, having
    /// arrived on `in_port` (input VC `in_vc`). Must return a valid output
    /// port; for the final hop this is the ejection port of the destination
    /// endpoint's router.
    fn route(
        &self,
        router: u32,
        in_port: u8,
        in_vc: u8,
        pkt: &PacketHeader,
        rng: &mut SplitMix64,
    ) -> RouteChoice;

    /// VC on which the packet is injected from its source endpoint.
    fn initial_vc(&self, pkt: &PacketHeader) -> u8;

    /// Number of VCs this oracle can request (engine checks it against
    /// `SimConfig::num_vcs`).
    fn num_vcs(&self) -> u8;

    /// Tag a freshly created packet with its intermediate W-group for
    /// non-minimal routing. The default (minimal routing) leaves the header
    /// untouched.
    fn tag_packet(&self, _pkt: &mut PacketHeader, _rng: &mut SplitMix64) {}
}

/// Blanket impls so oracles can be borrowed (`Simulation<&dyn RouteOracle>`)
/// or shared (`Arc`).
impl<T: RouteOracle + ?Sized> RouteOracle for &T {
    fn route(
        &self,
        router: u32,
        in_port: u8,
        in_vc: u8,
        pkt: &PacketHeader,
        rng: &mut SplitMix64,
    ) -> RouteChoice {
        (**self).route(router, in_port, in_vc, pkt, rng)
    }
    fn initial_vc(&self, pkt: &PacketHeader) -> u8 {
        (**self).initial_vc(pkt)
    }
    fn num_vcs(&self) -> u8 {
        (**self).num_vcs()
    }
    fn tag_packet(&self, pkt: &mut PacketHeader, rng: &mut SplitMix64) {
        (**self).tag_packet(pkt, rng)
    }
}

impl<T: RouteOracle + ?Sized> RouteOracle for std::sync::Arc<T> {
    fn route(
        &self,
        router: u32,
        in_port: u8,
        in_vc: u8,
        pkt: &PacketHeader,
        rng: &mut SplitMix64,
    ) -> RouteChoice {
        (**self).route(router, in_port, in_vc, pkt, rng)
    }
    fn initial_vc(&self, pkt: &PacketHeader) -> u8 {
        (**self).initial_vc(pkt)
    }
    fn num_vcs(&self) -> u8 {
        (**self).num_vcs()
    }
    fn tag_packet(&self, pkt: &mut PacketHeader, rng: &mut SplitMix64) {
        (**self).tag_packet(pkt, rng)
    }
}
