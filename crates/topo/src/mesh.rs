//! Standalone intra-C-group fabrics: a single m×m mesh and a single ideal
//! switch. These are the two sides of the paper's Fig. 10(a,b) comparison
//! ("intra-C-group / intra-switch performance").

use crate::{core_port, RouterKind};
use wsdf_sim::{ChannelClass, NetworkDesc};

/// A single C-group: m×m mesh of core routers, one endpoint per core, no
/// external ports.
#[derive(Debug, Clone)]
pub struct MeshFabric {
    /// The simulator network.
    pub net: NetworkDesc,
    /// Mesh side in cores.
    pub m: u32,
    /// Chiplet side (for on-chip vs short-reach link classing).
    pub chiplet: u32,
    /// Router kinds (all `Core` here).
    pub kinds: Vec<RouterKind>,
}

impl MeshFabric {
    /// Router id of core (x, y).
    pub fn router(&self, x: u32, y: u32) -> u32 {
        y * self.m + x
    }

    /// Endpoint id of core (x, y) (same numbering as routers).
    pub fn endpoint(&self, x: u32, y: u32) -> u32 {
        y * self.m + x
    }
}

/// Class of the mesh link between two adjacent cores: inside one chiplet it
/// is an on-chip (NoC) hop, across chiplet boundaries a short-reach
/// (on-wafer) hop.
pub(crate) fn mesh_link_class(chiplet: u32, x1: u32, y1: u32, x2: u32, y2: u32) -> ChannelClass {
    if chiplet == 0 {
        return ChannelClass::ShortReach;
    }
    let same = (x1 / chiplet == x2 / chiplet) && (y1 / chiplet == y2 / chiplet);
    if same {
        ChannelClass::OnChip
    } else {
        ChannelClass::ShortReach
    }
}

/// Wire the interior of an m×m core mesh into `net`.
///
/// `router_of(x, y)` maps coordinates to already-created router ids. Links
/// use +x/−x/+y/−y ports (see [`core_port`]), latency 1, width `mesh_width`.
pub(crate) fn wire_mesh<F: Fn(u32, u32) -> u32>(
    net: &mut NetworkDesc,
    m: u32,
    chiplet: u32,
    mesh_width: u8,
    router_of: F,
) {
    for y in 0..m {
        for x in 0..m {
            let here = router_of(x, y);
            if x + 1 < m {
                let right = router_of(x + 1, y);
                let class = mesh_link_class(chiplet, x, y, x + 1, y);
                net.connect(
                    (here, core_port::XP),
                    (right, core_port::XM),
                    1,
                    mesh_width,
                    class,
                );
            }
            if y + 1 < m {
                let up = router_of(x, y + 1);
                let class = mesh_link_class(chiplet, x, y, x, y + 1);
                net.connect(
                    (here, core_port::YP),
                    (up, core_port::YM),
                    1,
                    mesh_width,
                    class,
                );
            }
        }
    }
}

/// Build a standalone m×m mesh C-group with one endpoint per core.
pub fn single_mesh(m: u32, chiplet: u32, mesh_width: u8) -> MeshFabric {
    assert!(m >= 2, "mesh side must be >= 2");
    assert!(
        chiplet >= 1 && m.is_multiple_of(chiplet),
        "chiplet must divide m"
    );
    let mut net = NetworkDesc::new();
    let mut kinds = Vec::with_capacity((m * m) as usize);
    for y in 0..m {
        for x in 0..m {
            let r = net.add_router(core_port::COUNT);
            debug_assert_eq!(r, y * m + x);
            kinds.push(RouterKind::Core {
                w: 0,
                c: 0,
                x: x as u16,
                y: y as u16,
            });
            let e = net.add_endpoint(r);
            debug_assert_eq!(e, r);
            net.attach_endpoint(e, r, core_port::EP, 1, 1);
        }
    }
    wire_mesh(&mut net, m, chiplet, mesh_width, |x, y| y * m + x);
    net.validate()
        .expect("mesh construction is structurally valid");
    MeshFabric {
        net,
        m,
        chiplet,
        kinds,
    }
}

/// A single ideal high-radix switch with `terminals` endpoints — the
/// switch-based side of the intra-C-group comparison.
#[derive(Debug, Clone)]
pub struct SwitchNode {
    /// The simulator network.
    pub net: NetworkDesc,
    /// Number of terminals.
    pub terminals: u32,
}

/// Build a single switch with `terminals` directly attached endpoints.
/// Terminal links use latency 1 (the paper deliberately underestimates the
/// baseline's terminal-hop cost; see DESIGN.md).
pub fn single_switch(terminals: u32) -> SwitchNode {
    assert!(terminals >= 2);
    let mut net = NetworkDesc::new();
    // Ideal switch: full crossbar input speedup (the paper models switches
    // as single ideal high-radix routers).
    let sw = net.add_router_speedup(terminals as u8, terminals as u8);
    for t in 0..terminals {
        let e = net.add_endpoint(sw);
        net.attach_endpoint(e, sw, t as u8, 1, 1);
    }
    net.validate()
        .expect("switch construction is structurally valid");
    SwitchNode { net, terminals }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsdf_sim::Terminus;

    #[test]
    fn mesh_counts() {
        let f = single_mesh(4, 2, 1);
        assert_eq!(f.net.num_routers(), 16);
        assert_eq!(f.net.num_endpoints(), 16);
        // Channels: 2·16 endpoint + 2·(2·4·3) mesh.
        assert_eq!(f.net.channels.len(), 32 + 48);
    }

    #[test]
    fn mesh_link_classes_follow_chiplets() {
        // 4×4 mesh of 2×2 chiplets: the x-link from (0,0)-(1,0) is on-chip,
        // from (1,0)-(2,0) short-reach.
        assert_eq!(mesh_link_class(2, 0, 0, 1, 0), ChannelClass::OnChip);
        assert_eq!(mesh_link_class(2, 1, 0, 2, 0), ChannelClass::ShortReach);
        assert_eq!(mesh_link_class(2, 3, 1, 3, 2), ChannelClass::ShortReach);
        assert_eq!(mesh_link_class(2, 2, 2, 2, 3), ChannelClass::OnChip);
        // chiplet = 1: everything short-reach.
        assert_eq!(mesh_link_class(1, 0, 0, 1, 0), ChannelClass::ShortReach);
    }

    #[test]
    fn mesh_degree_is_correct() {
        let f = single_mesh(3, 1, 1);
        // Count outgoing router-to-router channels per router.
        let mut deg = [0u32; 9];
        for ch in &f.net.channels {
            if let (Terminus::Router { router, .. }, Terminus::Router { .. }) = (ch.src, ch.dst) {
                deg[router as usize] += 1;
            }
        }
        // Corners 2, edges 3, center 4.
        assert_eq!(deg[f.router(0, 0) as usize], 2);
        assert_eq!(deg[f.router(1, 0) as usize], 3);
        assert_eq!(deg[f.router(1, 1) as usize], 4);
    }

    #[test]
    fn mesh_2b_width() {
        let f = single_mesh(4, 2, 2);
        for ch in &f.net.channels {
            match ch.class {
                ChannelClass::OnChip | ChannelClass::ShortReach => assert_eq!(ch.width, 2),
                _ => assert_eq!(ch.width, 1),
            }
        }
    }

    #[test]
    fn switch_counts() {
        let s = single_switch(16);
        assert_eq!(s.net.num_routers(), 1);
        assert_eq!(s.net.num_endpoints(), 16);
        assert_eq!(s.net.channels.len(), 32);
    }

    #[test]
    #[should_panic(expected = "chiplet must divide m")]
    fn mesh_rejects_bad_chiplet() {
        single_mesh(4, 3, 1);
    }
}
