//! Machine-checked deadlock freedom of the fault-free oracles: the
//! channel-dependency graph ([`DependencyGraph`], Dally & Seitz) of the
//! walked routes has no cycle. Every (src, dst) pair is walked, and a
//! Valiant pair once through every intermediate W-group or group its
//! packets may be tagged with.

use wsdf_routing::{
    DependencyGraph, MeshOracle, PortMap, RouteMode, SlOracle, SwOracle, VcScheme, Walker,
};
use wsdf_sim::flit::NO_INTERMEDIATE;
use wsdf_sim::{NetworkDesc, RouteOracle};
use wsdf_topo::{single_mesh, SlParams, SwParams, SwitchFabric, SwitchlessFabric};

/// The dependency graph of every route `oracle` takes between the first
/// `endpoints` endpoints of `net`, each pair walked once per intermediate
/// in `inters(src, dst)`.
fn dependencies(
    net: &NetworkDesc,
    oracle: &dyn RouteOracle,
    endpoints: u32,
    inters: impl Fn(u32, u32) -> Vec<u32>,
) -> DependencyGraph {
    let map = PortMap::new(net);
    let walker = Walker::new(&map, oracle);
    let mut g = DependencyGraph::default();
    for s in 0..endpoints {
        for d in (0..endpoints).filter(|&d| d != s) {
            for inter in inters(s, d) {
                g.add(&walker.walk(s, d, inter).unwrap_or_else(|e| panic!("{e}")));
            }
        }
    }
    g
}

/// The intermediates Valiant tagging may pick for a packet from group
/// `gs` to group `gd` out of `groups` (`tag_packet`): none inside one
/// group or with fewer than 3 groups, else any group but the two ends.
/// Minimal routing takes none.
fn inters(mode: RouteMode, groups: u32, gs: u32, gd: u32) -> Vec<u32> {
    if mode == RouteMode::Minimal || gs == gd || groups < 3 {
        vec![NO_INTERMEDIATE]
    } else {
        (0..groups).filter(|&g| g != gs && g != gd).collect()
    }
}

#[test]
fn switchless_routes_cannot_deadlock() {
    // The `small()` config of `switchless_routes.rs`, cut to 3 W-groups.
    let p = SlParams {
        a: 2,
        b: 2,
        m: 4,
        chiplet: 2,
        wgroups: 3,
        mesh_width: 1,
        nodes_per_chip: 4.0,
    };
    let net = SwitchlessFabric::build(&p).net;
    for mode in [RouteMode::Minimal, RouteMode::Valiant] {
        for scheme in [VcScheme::Baseline, VcScheme::Reduced] {
            let default_spread = SlOracle::new(&p, mode, scheme);
            for (spread, o) in [
                (2, default_spread.clone()),
                (1, default_spread.with_spread(1)),
            ] {
                let g = dependencies(&net, &o, p.num_endpoints(), |s, d| {
                    let (ws, wd) = (p.wgroup_of_endpoint(s), p.wgroup_of_endpoint(d));
                    inters(mode, p.wgroups, ws, wd)
                });
                assert!(g.channels() > 0);
                assert_eq!(g.cycle(), None, "{mode:?} {scheme:?} spread {spread}");
            }
        }
    }
}

#[test]
fn switchbased_routes_cannot_deadlock() {
    let p = SwParams::radix16().with_groups(3);
    let net = SwitchFabric::build(&p).net;
    for (mode, o) in [
        (RouteMode::Minimal, SwOracle::minimal(&p)),
        (RouteMode::Valiant, SwOracle::valiant(&p)),
    ] {
        let g = dependencies(&net, &o, p.num_endpoints(), |s, d| {
            let (gs, gd) = (p.group_of_endpoint(s), p.group_of_endpoint(d));
            inters(mode, p.groups, gs, gd)
        });
        assert!(g.channels() > 0);
        assert_eq!(g.cycle(), None, "{mode:?}");
    }
}

#[test]
fn mesh_xy_routes_cannot_deadlock() {
    let m = 8;
    let net = single_mesh(m, 2, 1).net;
    let g = dependencies(&net, &MeshOracle::new(m), m * m, |_, _| {
        vec![NO_INTERMEDIATE]
    });
    assert!(g.channels() > 0);
    assert_eq!(g.cycle(), None);
}
