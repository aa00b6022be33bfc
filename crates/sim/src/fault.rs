//! Compact fault state consumed by the engine.
//!
//! A [`FaultMap`] marks routers and channels of one [`crate::NetworkDesc`]
//! as dead. The engine compiles it into per-port flags so that any attempt
//! to traverse a dead channel is a *hard assert* — a faulted fabric must
//! never silently carry traffic over failed hardware; a routing policy that
//! tries is a bug, not congestion.
//!
//! Fault *sampling* (seeded link/router failure draws, schedules) lives in
//! `wsdf-topo`, which sits above this crate; `FaultMap` is only the
//! dependency-free representation both sides agree on.

use crate::network::NetworkDesc;

/// Dead-router and dead-channel marking for one network.
///
/// Invariants are established by [`FaultMap::seal`]: every channel touching
/// a dead router (including endpoint injection/ejection channels) is dead
/// too. The engine requires a sealed map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultMap {
    dead_router: Vec<bool>,
    dead_channel: Vec<bool>,
}

impl FaultMap {
    /// All-alive map for a network with `routers` routers and `channels`
    /// channels.
    pub fn new(routers: usize, channels: usize) -> Self {
        FaultMap {
            dead_router: vec![false; routers],
            dead_channel: vec![false; channels],
        }
    }

    /// All-alive map sized for `net`.
    pub fn pristine(net: &NetworkDesc) -> Self {
        Self::new(net.num_routers(), net.channels.len())
    }

    /// Mark router `r` dead (idempotent). Call [`FaultMap::seal`] afterwards
    /// to propagate to its channels.
    pub fn kill_router(&mut self, r: u32) {
        self.dead_router[r as usize] = true;
    }

    /// Mark channel `c` dead (idempotent).
    pub fn kill_channel(&mut self, c: u32) {
        self.dead_channel[c as usize] = true;
    }

    /// True if router `r` is dead.
    #[inline]
    pub fn router_dead(&self, r: u32) -> bool {
        self.dead_router[r as usize]
    }

    /// True if channel `c` is dead.
    #[inline]
    pub fn channel_dead(&self, c: u32) -> bool {
        self.dead_channel[c as usize]
    }

    /// Number of routers covered by the map.
    pub fn num_routers(&self) -> usize {
        self.dead_router.len()
    }

    /// Routers still alive.
    pub fn live_routers(&self) -> usize {
        self.dead_router.iter().filter(|&&d| !d).count()
    }

    /// Dead routers.
    pub fn dead_routers(&self) -> usize {
        self.dead_router.iter().filter(|&&d| d).count()
    }

    /// True when nothing is marked dead.
    pub fn is_empty(&self) -> bool {
        !self.dead_router.iter().any(|&d| d) && !self.dead_channel.iter().any(|&d| d)
    }

    /// Merge another map's failures into this one (sizes must match).
    pub fn union(&mut self, other: &FaultMap) {
        assert_eq!(self.dead_router.len(), other.dead_router.len());
        assert_eq!(self.dead_channel.len(), other.dead_channel.len());
        for (a, b) in self.dead_router.iter_mut().zip(&other.dead_router) {
            *a |= b;
        }
        for (a, b) in self.dead_channel.iter_mut().zip(&other.dead_channel) {
            *a |= b;
        }
    }

    /// Propagate router death to every channel touching a dead router
    /// (both directions, including endpoint injection/ejection channels —
    /// an endpoint attached to a dead router cannot inject or eject).
    pub fn seal(&mut self, net: &NetworkDesc) {
        self.validate(net)
            .expect("fault map does not match network");
        for (c, ch) in net.channels.iter().enumerate() {
            for t in [&ch.src, &ch.dst] {
                let touches_dead = match t {
                    crate::Terminus::Router { router, .. } => self.router_dead(*router),
                    crate::Terminus::Endpoint { endpoint } => {
                        self.router_dead(net.endpoints[*endpoint as usize].router)
                    }
                };
                if touches_dead {
                    self.dead_channel[c] = true;
                }
            }
        }
    }

    /// Dimension check against `net`.
    pub fn validate(&self, net: &NetworkDesc) -> Result<(), String> {
        if self.dead_router.len() != net.num_routers() {
            return Err(format!(
                "fault map covers {} routers, network has {}",
                self.dead_router.len(),
                net.num_routers()
            ));
        }
        if self.dead_channel.len() != net.channels.len() {
            return Err(format!(
                "fault map covers {} channels, network has {}",
                self.dead_channel.len(),
                net.channels.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelClass;

    fn two_router_net() -> NetworkDesc {
        let mut n = NetworkDesc::new();
        let a = n.add_router(2);
        let b = n.add_router(2);
        let ea = n.add_endpoint(a);
        let eb = n.add_endpoint(b);
        n.attach_endpoint(ea, a, 0, 1, 1);
        n.attach_endpoint(eb, b, 0, 1, 1);
        n.connect((a, 1), (b, 1), 1, 1, ChannelClass::ShortReach);
        n
    }

    #[test]
    fn pristine_is_empty_and_validates() {
        let net = two_router_net();
        let m = FaultMap::pristine(&net);
        assert!(m.is_empty());
        assert_eq!(m.live_routers(), 2);
        m.validate(&net).unwrap();
    }

    #[test]
    fn seal_kills_all_channels_of_a_dead_router() {
        let net = two_router_net();
        let mut m = FaultMap::pristine(&net);
        m.kill_router(0);
        m.seal(&net);
        assert_eq!(m.live_routers(), 1);
        // Router 0's endpoint channels (0, 1) and both ring channels (4, 5)
        // must be dead; router 1's endpoint channels (2, 3) stay alive.
        for (c, ch) in net.channels.iter().enumerate() {
            let touches_r0 = [ch.src, ch.dst].iter().any(|t| match t {
                crate::Terminus::Router { router, .. } => *router == 0,
                crate::Terminus::Endpoint { endpoint } => *endpoint == 0,
            });
            assert_eq!(m.channel_dead(c as u32), touches_r0, "channel {c}");
        }
    }

    #[test]
    fn union_merges_failures() {
        let net = two_router_net();
        let mut a = FaultMap::pristine(&net);
        a.kill_channel(4);
        let mut b = FaultMap::pristine(&net);
        b.kill_router(1);
        a.union(&b);
        assert!(a.channel_dead(4));
        assert!(a.router_dead(1));
        assert!(!a.router_dead(0));
    }

    #[test]
    fn validate_rejects_size_mismatch() {
        let net = two_router_net();
        let m = FaultMap::new(1, net.channels.len());
        assert!(m.validate(&net).is_err());
        let m = FaultMap::new(net.num_routers(), 0);
        assert!(m.validate(&net).is_err());
    }
}
