//! Static network description consumed by the engine.
//!
//! `NetworkDesc` is a plain graph: routers with ports, unidirectional
//! channels between router ports (or to/from endpoints), and endpoints.
//! Topology builders in `wsdf-topo` produce these; the engine validates and
//! compiles them into runtime state.

use crate::channel::{ChannelClass, ChannelDesc, Terminus};

/// Most ports one router may have. The engine keeps each router's
/// occupied-port set in one `u64` (bit = port) and its per-input
/// switch-allocation quotas in a fixed array of this length;
/// [`NetworkDesc::validate`] rejects larger routers.
pub const MAX_PORTS: usize = 64;

/// Static description of one router.
#[derive(Debug, Clone, Copy)]
pub struct RouterDesc {
    /// Number of ports (each port may have an incoming and an outgoing
    /// channel attached).
    pub ports: u8,
    /// Crossbar input speedup: how many flits one input port may forward
    /// per cycle (1 = wormhole-realistic, ≥ radix = ideal switch). Output
    /// bandwidth is still bounded by each channel's width.
    pub speedup: u8,
}

/// Static description of one endpoint (traffic source/sink).
#[derive(Debug, Clone, Copy)]
pub struct EndpointDesc {
    /// Router this endpoint is attached to (for partition colocation).
    pub router: u32,
}

/// A full static network: the input to [`crate::Simulation`].
#[derive(Debug, Clone, Default)]
pub struct NetworkDesc {
    /// All routers.
    pub routers: Vec<RouterDesc>,
    /// All unidirectional channels.
    pub channels: Vec<ChannelDesc>,
    /// All endpoints.
    pub endpoints: Vec<EndpointDesc>,
}

impl NetworkDesc {
    /// Create an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a router with `ports` ports and no input speedup.
    pub fn add_router(&mut self, ports: u8) -> u32 {
        self.add_router_speedup(ports, 1)
    }

    /// Add a router with explicit crossbar input speedup (used for the
    /// paper's "ideal high-radix router" switch model).
    pub fn add_router_speedup(&mut self, ports: u8, speedup: u8) -> u32 {
        let id = self.routers.len() as u32;
        self.routers.push(RouterDesc {
            ports,
            speedup: speedup.max(1),
        });
        id
    }

    /// Add an endpoint attached to `router`; returns its index.
    ///
    /// The caller must still wire injection/ejection channels between the
    /// endpoint and a router port.
    pub fn add_endpoint(&mut self, router: u32) -> u32 {
        let id = self.endpoints.len() as u32;
        self.endpoints.push(EndpointDesc { router });
        id
    }

    /// Add a channel; returns its index.
    pub fn add_channel(&mut self, desc: ChannelDesc) -> u32 {
        let id = self.channels.len() as u32;
        self.channels.push(desc);
        id
    }

    /// Wire an endpoint to a router port with injection and ejection
    /// channels of the given latency/width.
    pub fn attach_endpoint(
        &mut self,
        endpoint: u32,
        router: u32,
        port: u8,
        latency: u32,
        width: u8,
    ) {
        self.add_channel(ChannelDesc {
            src: Terminus::Endpoint { endpoint },
            dst: Terminus::Router { router, port },
            latency,
            width,
            class: ChannelClass::Injection,
        });
        self.add_channel(ChannelDesc {
            src: Terminus::Router { router, port },
            dst: Terminus::Endpoint { endpoint },
            latency,
            width,
            class: ChannelClass::Ejection,
        });
    }

    /// Wire a bidirectional router-to-router link (two channels).
    pub fn connect(
        &mut self,
        a: (u32, u8),
        b: (u32, u8),
        latency: u32,
        width: u8,
        class: ChannelClass,
    ) {
        self.add_channel(ChannelDesc::router_to_router(
            a.0, a.1, b.0, b.1, latency, width, class,
        ));
        self.add_channel(ChannelDesc::router_to_router(
            b.0, b.1, a.0, a.1, latency, width, class,
        ));
    }

    /// Structural validation: at most [`MAX_PORTS`] ports per router,
    /// indices in range, no port used twice in the same direction,
    /// latency ≥ 1, width ≥ 1.
    pub fn validate(&self) -> Result<(), String> {
        let nr = self.routers.len() as u32;
        let ne = self.endpoints.len() as u32;
        for (i, r) in self.routers.iter().enumerate() {
            if r.ports as usize > MAX_PORTS {
                return Err(format!(
                    "router {i} has {} ports; the engine supports at most {MAX_PORTS}",
                    r.ports
                ));
            }
        }
        for (i, e) in self.endpoints.iter().enumerate() {
            if e.router >= nr {
                return Err(format!(
                    "endpoint {i} attached to missing router {}",
                    e.router
                ));
            }
        }
        // Used as a channel src / dst: one flag per (router, port) and one
        // per endpoint.
        let first = self.port_offsets();
        let mut out_used = vec![false; first[nr as usize]];
        let mut in_used = vec![false; first[nr as usize]];
        let mut ep_out = vec![false; ne as usize];
        let mut ep_in = vec![false; ne as usize];
        for (i, ch) in self.channels.iter().enumerate() {
            if ch.latency == 0 {
                return Err(format!("channel {i} has zero latency"));
            }
            if ch.width == 0 {
                return Err(format!("channel {i} has zero width"));
            }
            for (t, used, ep_used, dir) in [
                (&ch.src, &mut out_used, &mut ep_out, "src"),
                (&ch.dst, &mut in_used, &mut ep_in, "dst"),
            ] {
                match t {
                    Terminus::Router { router, port } => {
                        if *router >= nr {
                            return Err(format!("channel {i} {dir}: missing router {router}"));
                        }
                        if *port >= self.routers[*router as usize].ports {
                            return Err(format!(
                                "channel {i} {dir}: router {router} has no port {port}"
                            ));
                        }
                        let slot = first[*router as usize] + usize::from(*port);
                        if std::mem::replace(&mut used[slot], true) {
                            return Err(format!(
                                "channel {i} {dir}: port ({router},{port}) already used"
                            ));
                        }
                    }
                    Terminus::Endpoint { endpoint } => {
                        if *endpoint >= ne {
                            return Err(format!("channel {i} {dir}: missing endpoint {endpoint}"));
                        }
                        if std::mem::replace(&mut ep_used[*endpoint as usize], true) {
                            return Err(format!(
                                "channel {i} {dir}: endpoint {endpoint} already wired"
                            ));
                        }
                    }
                }
            }
        }
        // Every endpoint must have exactly one injection and one ejection side.
        for e in 0..ne {
            if !ep_out[e as usize] {
                return Err(format!("endpoint {e} has no injection channel"));
            }
            if !ep_in[e as usize] {
                return Err(format!("endpoint {e} has no ejection channel"));
            }
        }
        Ok(())
    }

    /// Dense (router, port) numbering: port `p` of router `r` is
    /// `offsets[r] + p`, and `offsets[routers]` counts every port.
    pub fn port_offsets(&self) -> Vec<usize> {
        let mut offsets = vec![0; self.routers.len() + 1];
        for (r, rd) in self.routers.iter().enumerate() {
            offsets[r + 1] = offsets[r] + usize::from(rd.ports);
        }
        offsets
    }

    /// Total number of routers.
    pub fn num_routers(&self) -> usize {
        self.routers.len()
    }

    /// Total number of endpoints.
    pub fn num_endpoints(&self) -> usize {
        self.endpoints.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two routers, one endpoint each, bidirectional link between them.
    pub fn tiny() -> NetworkDesc {
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
    fn tiny_validates() {
        tiny().validate().unwrap();
    }

    /// `n`'s validation error.
    fn error(n: &NetworkDesc) -> String {
        n.validate().unwrap_err()
    }

    #[test]
    fn rejects_missing_router() {
        let mut n = tiny();
        n.channels[0].dst = Terminus::Router {
            router: 99,
            port: 0,
        };
        assert_eq!(error(&n), "channel 0 dst: missing router 99");
    }

    #[test]
    fn rejects_port_out_of_range() {
        let mut n = tiny();
        n.channels[4].src = Terminus::Router { router: 0, port: 7 };
        assert_eq!(error(&n), "channel 4 src: router 0 has no port 7");
    }

    #[test]
    fn rejects_duplicate_port_use() {
        let mut n = tiny();
        // Re-use router 0 port 1 as a source for another channel.
        n.add_channel(ChannelDesc::router_to_router(
            0,
            1,
            1,
            0,
            1,
            1,
            ChannelClass::ShortReach,
        ));
        assert_eq!(error(&n), "channel 6 src: port (0,1) already used");
    }

    #[test]
    fn rejects_zero_latency_and_width() {
        let mut n = tiny();
        n.channels[0].latency = 0;
        assert_eq!(error(&n), "channel 0 has zero latency");
        let mut n = tiny();
        n.channels[0].width = 0;
        assert_eq!(error(&n), "channel 0 has zero width");
    }

    #[test]
    fn rejects_unwired_endpoint() {
        let mut n = tiny();
        n.add_endpoint(0);
        assert_eq!(error(&n), "endpoint 2 has no injection channel");
    }

    #[test]
    fn rejects_endpoint_on_missing_router() {
        let mut n = tiny();
        n.endpoints[1].router = 5;
        assert_eq!(error(&n), "endpoint 1 attached to missing router 5");
    }

    #[test]
    fn rejects_channel_to_missing_endpoint() {
        let mut n = tiny();
        n.channels[1].dst = Terminus::Endpoint { endpoint: 9 };
        assert_eq!(error(&n), "channel 1 dst: missing endpoint 9");
    }

    #[test]
    fn rejects_endpoint_wired_twice() {
        let mut n = tiny();
        // Endpoint 1's ejection channel also ends at endpoint 0.
        n.channels[3].dst = Terminus::Endpoint { endpoint: 0 };
        assert_eq!(error(&n), "channel 3 dst: endpoint 0 already wired");
    }

    #[test]
    fn rejects_endpoint_without_ejection() {
        let mut n = tiny();
        // Drop endpoint 1's ejection channel.
        n.channels.remove(3);
        assert_eq!(error(&n), "endpoint 1 has no ejection channel");
    }

    #[test]
    fn rejects_router_beyond_max_ports() {
        let mut n = tiny();
        n.add_router(MAX_PORTS as u8 + 1);
        assert_eq!(
            error(&n),
            "router 2 has 65 ports; the engine supports at most 64"
        );
    }
}
