//! Minimal and non-minimal routing on the switch-less Dragonfly
//! (Sec. IV of the paper), with the Baseline and Reduced VC disciplines.
//!
//! ## Route structure (Algorithm 1)
//!
//! A packet from (ws, cs, ns) to (wd, cd, nd) traverses up to seven steps:
//! route-within-C-group to the node attached to the exit port, a local
//! channel, RWC, a global channel, RWC, a local channel, RWC to nd. In this
//! topology every external port is an SR-LR converter, so "the node that
//! has the channel" is the converter's attach core, and each inter-C-group
//! hop costs two extra short-reach hops (core→converter, converter→core) —
//! exactly the `+2 H_sr` per hop of Eq. (7).
//!
//! ## VC disciplines
//!
//! * [`VcScheme::Baseline`]: the VC index increases at every C-group along
//!   the path (Sec. IV-A): source C-group 0, second C-group of the source
//!   W-group 1, then 2/3 (minimal) or 2..5 (Valiant). Intra-C-group routing
//!   is plain XY through the mesh. Deadlock-free because each VC class's
//!   channel-dependency graph is confined to one C-group's acyclic
//!   XY-mesh plus terminal inter-group channels.
//! * [`VcScheme::Reduced`]: Sec. IV-B — all C-groups of the destination
//!   W-group share VC 2, and (for Valiant) all C-groups of the intermediate
//!   W-group share VC 3: 3 VCs minimal, 4 non-minimal. Deadlock freedom
//!   inside a shared-VC W-group comes from up*/down* routing over the
//!   order (C-group, core row-major, converters above cores): packets ride
//!   the perimeter converter chain and enter the mesh at a core that
//!   dominates the destination, descending with −x/−y moves only. Every
//!   route is an up-phase followed by a down-phase, so the VC-2/VC-3
//!   dependency graphs are acyclic (classic up*/down* argument). This
//!   trades some path length through the chain for the smaller VC count —
//!   quantified by the `vc_ablation` bench.

use crate::mesh::xy_step;
use crate::RouteMode;
use wsdf_sim::{flit::NO_INTERMEDIATE, PacketHeader, RouteChoice, RouteOracle, SplitMix64};
use wsdf_topo::address::PortRole;
use wsdf_topo::{conv_port, core_port, SlParams};

/// Virtual-channel discipline for the switch-less Dragonfly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VcScheme {
    /// One VC per C-group visited: 4 VCs minimal / 6 Valiant (Sec. IV-A).
    Baseline,
    /// Up*/down*-merged W-group VCs: 3 minimal / 4 Valiant (Sec. IV-B).
    Reduced,
}

wsdf_sim::json_names!(VcScheme; Baseline = "baseline", Reduced = "reduced");

/// Routing oracle for [`wsdf_topo::SwitchlessFabric`].
#[derive(Debug, Clone)]
pub struct SlOracle {
    p: SlParams,
    mode: RouteMode,
    scheme: VcScheme,
    /// Sub-VCs per deadlock class (head-of-line relief; the deadlock
    /// argument only depends on the class ordering).
    spread: u8,
}

/// Default sub-VCs per class (matches the baseline switches' relief; see
/// `wsdf_routing::switchbased::SwOracle`).
const DEFAULT_SPREAD: u8 = 2;

/// Where a packet must leave the current C-group, or eject locally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Objective {
    /// Leave through the external port with this label.
    Exit(u32),
    /// Deliver to this core (x, y) in the current C-group.
    Core(u32, u32),
}

impl SlOracle {
    /// Build an oracle; `Reduced` requires `h ≥ m` (all up-local labels
    /// above every top-row ring position — see DESIGN.md), which holds for
    /// both paper configurations.
    pub fn new(p: &SlParams, mode: RouteMode, scheme: VcScheme) -> Self {
        if scheme == VcScheme::Reduced {
            assert!(
                p.h() >= p.m,
                "Reduced VC scheme requires h >= m (h = {}, m = {})",
                p.h(),
                p.m
            );
        }
        SlOracle {
            p: *p,
            mode,
            scheme,
            spread: DEFAULT_SPREAD,
        }
    }

    /// Override the sub-VC spread (1 = the paper's literal VC counts).
    pub fn with_spread(mut self, spread: u8) -> Self {
        assert!(spread >= 1);
        self.spread = spread;
        self
    }

    /// Concrete VC for a class: class-major, hash-spread within.
    fn vc(&self, class: u8, pkt: &PacketHeader) -> u8 {
        let h = (SplitMix64::new(pkt.id ^ 0x3DF1).next_u64() % self.spread as u64) as u8;
        class * self.spread + h
    }

    /// Minimal routing with the Baseline VC discipline.
    pub fn minimal(p: &SlParams) -> Self {
        Self::new(p, RouteMode::Minimal, VcScheme::Baseline)
    }

    /// Valiant routing with the Baseline VC discipline.
    pub fn valiant(p: &SlParams) -> Self {
        Self::new(p, RouteMode::Valiant, VcScheme::Baseline)
    }

    /// The parameters this oracle routes over.
    pub fn params(&self) -> &SlParams {
        &self.p
    }

    /// The W-group the packet currently heads for.
    fn target_wgroup(&self, w: u32, pkt: &PacketHeader) -> u32 {
        let wd = self.p.wgroup_of_endpoint(pkt.dst);
        if w == wd {
            wd
        } else if pkt.inter_w != NO_INTERMEDIATE && w != pkt.inter_w {
            pkt.inter_w
        } else {
            wd
        }
    }

    /// C-group holding the chosen global port toward `target` from W-group
    /// `w`, plus the port's label. Trunk choice hashes the packet id.
    fn global_exit(&self, w: u32, target: u32, pkt: &PacketHeader) -> (u32, u32) {
        let p = &self.p;
        let wn = p.wgroups;
        let ports = p.ab() * p.h();
        let off = (target + wn - w - 1) % wn;
        debug_assert!(off < wn - 1, "target_wgroup == w");
        let mut trunks = 0;
        let mut q = off;
        while q < ports {
            if p.global_peer(w, q).is_some() {
                trunks += 1;
            }
            q += wn - 1;
        }
        debug_assert!(trunks > 0, "palmtree must keep W-groups all-to-all");
        let pick = (SplitMix64::new(pkt.id ^ 0xA5A5).next_u64() % trunks as u64) as u32;
        let mut seen = 0;
        let mut q = off;
        loop {
            if p.global_peer(w, q).is_some() {
                if seen == pick {
                    break;
                }
                seen += 1;
            }
            q += wn - 1;
        }
        let (c, j) = (q / p.h(), q % p.h());
        (c, p.global_port_label(c, j))
    }

    /// What the packet must do inside C-group (w, c).
    fn objective(&self, w: u32, c: u32, pkt: &PacketHeader) -> Objective {
        let p = &self.p;
        let (wd, cd, xd, yd) = p.endpoint_location(pkt.dst);
        let target = self.target_wgroup(w, pkt);
        if target != w {
            // Leave the W-group: reach the C-group with the global port.
            let (cb, label) = self.global_exit(w, target, pkt);
            if c == cb {
                Objective::Exit(label)
            } else {
                Objective::Exit(p.local_port_label(c, cb))
            }
        } else {
            debug_assert_eq!(w, wd);
            if c == cd {
                Objective::Core(xd, yd)
            } else {
                Objective::Exit(p.local_port_label(c, cd))
            }
        }
    }

    /// VC class of the packet when located at (w, c) — the downstream
    /// location of the hop being granted.
    fn vc_class(&self, w: u32, c: u32, pkt: &PacketHeader) -> u8 {
        let p = &self.p;
        let (ws, cs, _, _) = p.endpoint_location(pkt.src);
        let (wd, cd, _, _) = p.endpoint_location(pkt.dst);
        let at_src_cg = w == ws && c == cs;
        let misrouted = pkt.inter_w != NO_INTERMEDIATE;
        match self.scheme {
            VcScheme::Baseline => {
                if w == wd {
                    // Destination W-group (for local traffic the source
                    // C-group still counts as class 0).
                    if at_src_cg {
                        0
                    } else if misrouted {
                        if c == cd {
                            5
                        } else {
                            4
                        }
                    } else if c == cd {
                        3
                    } else {
                        2
                    }
                } else if w == ws {
                    if c == cs {
                        0
                    } else {
                        1
                    }
                } else {
                    // Intermediate (misrouting) W-group: entry C-groups get
                    // class 2, the global-exit C-group class 3.
                    let target = self.target_wgroup(w, pkt);
                    let (cb, _) = self.global_exit(w, target, pkt);
                    if c == cb {
                        3
                    } else {
                        2
                    }
                }
            }
            VcScheme::Reduced => {
                if w == wd {
                    if at_src_cg {
                        0
                    } else {
                        2
                    }
                } else if w == ws {
                    if c == cs {
                        0
                    } else {
                        1
                    }
                } else {
                    3
                }
            }
        }
    }

    /// Route at a core router under the Baseline (XY) discipline.
    fn route_core_xy(&self, w: u32, c: u32, x: u32, y: u32, obj: Objective) -> u8 {
        match obj {
            Objective::Core(xd, yd) => xy_step(x, y, xd, yd).unwrap_or(core_port::EP),
            Objective::Exit(label) => {
                let (ax, ay) = self.p.ring_to_xy(label);
                let _ = (w, c);
                xy_step(x, y, ax, ay).unwrap_or(core_port::CONV)
            }
        }
    }

    /// Route at a core router under the Reduced discipline. Cores are only
    /// visited by class-0 (source C-group, XY toward the exit) and class-2
    /// descent segments; the descent uses −x/−y moves only.
    fn route_core_reduced(&self, w: u32, c: u32, x: u32, y: u32, obj: Objective, class: u8) -> u8 {
        match obj {
            Objective::Core(xd, yd) => {
                if class == 0 {
                    // Pure intra-C-group traffic: XY is fine (class 0 is
                    // confined to this mesh).
                    return xy_step(x, y, xd, yd).unwrap_or(core_port::EP);
                }
                // Descent phase: the entry core dominates the destination.
                debug_assert!(
                    x >= xd && y >= yd,
                    "descent invariant violated at ({x},{y}) → ({xd},{yd})"
                );
                if x > xd {
                    core_port::XM
                } else if y > yd {
                    core_port::YM
                } else {
                    core_port::EP
                }
            }
            Objective::Exit(label) => {
                // Only the source C-group (class 0) routes core→exit; it may
                // use XY because class 0 never leaves this mesh.
                debug_assert_eq!(class, 0, "reduced scheme: core exit outside class 0");
                let _ = (w, c);
                let (ax, ay) = self.p.ring_to_xy(label);
                xy_step(x, y, ax, ay).unwrap_or(core_port::CONV)
            }
        }
    }

    /// Route at a converter with label `l` under the Baseline discipline:
    /// exit here, or dive into the mesh (chain ports unused).
    fn route_conv_xy(&self, l: u32, obj: Objective) -> u8 {
        match obj {
            Objective::Exit(label) if label == l => conv_port::EXT,
            _ => conv_port::CORE,
        }
    }

    /// Route at a converter with label `l` under the Reduced discipline:
    /// walk the perimeter chain to the exit label, or to a mesh entry that
    /// dominates the destination core.
    fn route_conv_reduced(&self, l: u32, obj: Objective) -> u8 {
        match obj {
            Objective::Exit(label) => {
                if label == l {
                    conv_port::EXT
                } else if label > l {
                    conv_port::NEXT
                } else {
                    conv_port::PREV
                }
            }
            Objective::Core(xd, yd) => {
                // Ring positions whose attach core dominates (xd, yd):
                // the contiguous range [xd, 2(m−1)−yd] (top row right of xd,
                // the top-right corner, right column above yd).
                let hi = 2 * (self.p.m - 1) - yd;
                if l < xd {
                    conv_port::NEXT
                } else if l > hi {
                    conv_port::PREV
                } else {
                    conv_port::CORE
                }
            }
        }
    }
}

impl RouteOracle for SlOracle {
    fn route(
        &self,
        router: u32,
        _in_port: u8,
        _in_vc: u8,
        pkt: &PacketHeader,
        _rng: &mut SplitMix64,
    ) -> RouteChoice {
        let p = &self.p;
        let (w, c, local) = p.router_location(router);
        let obj = self.objective(w, c, pkt);

        if p.local_is_core(local) {
            let (x, y) = (local % p.m, local / p.m);
            let class = self.vc_class(w, c, pkt);
            let out_port = match self.scheme {
                VcScheme::Baseline => self.route_core_xy(w, c, x, y, obj),
                VcScheme::Reduced => self.route_core_reduced(w, c, x, y, obj, class),
            };
            // Mesh/converter/ejection hops stay in (w, c).
            return RouteChoice {
                out_port,
                out_vc: self.vc(class, pkt),
            };
        }

        // Converter.
        let label = local - p.m * p.m;
        let out_port = match self.scheme {
            VcScheme::Baseline => self.route_conv_xy(label, obj),
            VcScheme::Reduced => self.route_conv_reduced(label, obj),
        };
        let out_vc = if out_port == conv_port::EXT {
            // Crossing to another C-group (and possibly W-group): class of
            // the downstream side.
            let (w2, c2) = match p.port_role(c, label) {
                PortRole::Local(peer) => (w, peer),
                PortRole::Global(_) => {
                    let q = p.wgroup_global_port(c, label - c);
                    let (v, _) = p
                        .global_peer(w, q)
                        .expect("routing chose an unwired global port");
                    (v, {
                        // Downstream C-group of the peer's paired port.
                        let (_, qb) = p.global_peer(w, q).unwrap();
                        qb / p.h()
                    })
                }
            };
            self.vc(self.vc_class(w2, c2, pkt), pkt)
        } else {
            self.vc(self.vc_class(w, c, pkt), pkt)
        };
        RouteChoice { out_port, out_vc }
    }

    fn initial_vc(&self, pkt: &PacketHeader) -> u8 {
        self.vc(0, pkt)
    }

    fn num_vcs(&self) -> u8 {
        let classes = match (self.mode, self.scheme) {
            (RouteMode::Minimal, VcScheme::Baseline) => 4,
            (RouteMode::Valiant, VcScheme::Baseline) => 6,
            (RouteMode::Minimal, VcScheme::Reduced) => 3,
            (RouteMode::Valiant, VcScheme::Reduced) => 4,
        };
        classes * self.spread
    }

    fn tag_packet(&self, pkt: &mut PacketHeader, rng: &mut SplitMix64) {
        if self.mode != RouteMode::Valiant {
            return;
        }
        let ws = self.p.wgroup_of_endpoint(pkt.src);
        let wd = self.p.wgroup_of_endpoint(pkt.dst);
        if ws == wd || self.p.wgroups < 3 {
            return;
        }
        let mut w = rng.next_below(self.p.wgroups as u64 - 2) as u32;
        for excl in [ws.min(wd), ws.max(wd)] {
            if w >= excl {
                w += 1;
            }
        }
        pkt.inter_w = w;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> SlParams {
        SlParams::radix16().with_wgroups(5)
    }

    fn hdr(p: &SlParams, src: (u32, u32, u32, u32), dst: (u32, u32, u32, u32)) -> PacketHeader {
        PacketHeader {
            id: 42,
            src: p.endpoint_of(src.0, src.1, src.2, src.3),
            dst: p.endpoint_of(dst.0, dst.1, dst.2, dst.3),
            inter_w: NO_INTERMEDIATE,
            created: 0,
            len: 4,
        }
    }

    #[test]
    fn vc_counts_match_paper() {
        // The paper's VC counts are deadlock classes (spread = 1); the
        // default spread doubles each class for head-of-line relief.
        let p = params();
        assert_eq!(SlOracle::minimal(&p).with_spread(1).num_vcs(), 4);
        assert_eq!(SlOracle::valiant(&p).with_spread(1).num_vcs(), 6);
        assert_eq!(
            SlOracle::new(&p, RouteMode::Minimal, VcScheme::Reduced)
                .with_spread(1)
                .num_vcs(),
            3
        );
        assert_eq!(
            SlOracle::new(&p, RouteMode::Valiant, VcScheme::Reduced)
                .with_spread(1)
                .num_vcs(),
            4
        );
        assert_eq!(SlOracle::minimal(&p).num_vcs(), 8);
    }

    #[test]
    fn baseline_vc_classes_are_monotone_over_segments() {
        let p = params();
        let o = SlOracle::minimal(&p);
        let pkt = hdr(&p, (0, 1, 0, 0), (3, 4, 2, 2));
        // Source C-group.
        assert_eq!(o.vc_class(0, 1, &pkt), 0);
        // Another C-group of the source W-group.
        assert_eq!(o.vc_class(0, 5, &pkt), 1);
        // Non-destination C-group of the dest W-group.
        assert_eq!(o.vc_class(3, 0, &pkt), 2);
        // Destination C-group.
        assert_eq!(o.vc_class(3, 4, &pkt), 3);
    }

    #[test]
    fn reduced_vc_classes_merge_dest_wgroup() {
        let p = params();
        let o = SlOracle::new(&p, RouteMode::Minimal, VcScheme::Reduced);
        let pkt = hdr(&p, (0, 1, 0, 0), (3, 4, 2, 2));
        assert_eq!(o.vc_class(0, 1, &pkt), 0);
        assert_eq!(o.vc_class(0, 5, &pkt), 1);
        assert_eq!(o.vc_class(3, 0, &pkt), 2);
        assert_eq!(o.vc_class(3, 4, &pkt), 2);
    }

    #[test]
    fn local_traffic_stays_in_low_classes() {
        let p = params();
        let o = SlOracle::minimal(&p);
        let pkt = hdr(&p, (2, 1, 0, 0), (2, 6, 3, 3));
        assert_eq!(o.vc_class(2, 1, &pkt), 0);
        // Destination C-group of same-W traffic: class 3 (baseline).
        assert_eq!(o.vc_class(2, 6, &pkt), 3);
    }

    #[test]
    fn objective_seeks_global_exit_cgroup() {
        let p = params();
        let o = SlOracle::minimal(&p);
        let pkt = hdr(&p, (0, 0, 0, 0), (3, 0, 0, 0));
        // In W0 heading to W3: objective must be an Exit.
        match o.objective(0, 0, &pkt) {
            Objective::Exit(_) => {}
            other => panic!("expected Exit, got {other:?}"),
        }
        // In the destination C-group: objective is the core.
        assert_eq!(o.objective(3, 0, &pkt), Objective::Core(0, 0));
    }

    #[test]
    fn global_exit_reaches_the_target() {
        let p = params();
        let o = SlOracle::minimal(&p);
        for target in 1..5u32 {
            let pkt = hdr(&p, (0, 0, 0, 0), (target, 0, 0, 0));
            let (cb, label) = o.global_exit(0, target, &pkt);
            let q = p.wgroup_global_port(cb, label - cb);
            let (v, _) = p.global_peer(0, q).unwrap();
            assert_eq!(v, target);
            // Label really is a global port of cb.
            assert!(matches!(p.port_role(cb, label), PortRole::Global(_)));
        }
    }

    #[test]
    fn reduced_conv_routing_walks_toward_dominating_entry() {
        let p = params(); // m = 4, k = 12
        let o = SlOracle::new(&p, RouteMode::Minimal, VcScheme::Reduced);
        // Dest core (2, 1): entry range [2, 2(3)−1] = [2, 5].
        assert_eq!(
            o.route_conv_reduced(0, Objective::Core(2, 1)),
            conv_port::NEXT
        );
        assert_eq!(
            o.route_conv_reduced(2, Objective::Core(2, 1)),
            conv_port::CORE
        );
        assert_eq!(
            o.route_conv_reduced(5, Objective::Core(2, 1)),
            conv_port::CORE
        );
        assert_eq!(
            o.route_conv_reduced(6, Objective::Core(2, 1)),
            conv_port::PREV
        );
        assert_eq!(
            o.route_conv_reduced(11, Objective::Core(2, 1)),
            conv_port::PREV
        );
    }

    #[test]
    fn reduced_requires_h_at_least_m() {
        // ab = 12 on m=4 gives h = 1 < m: must panic.
        let p = SlParams {
            a: 6,
            b: 2,
            m: 4,
            chiplet: 2,
            wgroups: 1,
            mesh_width: 1,
            nodes_per_chip: 4.0,
        };
        let r =
            std::panic::catch_unwind(|| SlOracle::new(&p, RouteMode::Minimal, VcScheme::Reduced));
        assert!(r.is_err());
    }

    #[test]
    fn valiant_tags_avoid_src_and_dst() {
        let p = params();
        let o = SlOracle::valiant(&p);
        let mut rng = SplitMix64::new(9);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..300 {
            let mut pkt = hdr(&p, (1, 0, 0, 0), (4, 0, 0, 0));
            o.tag_packet(&mut pkt, &mut rng);
            assert!(pkt.inter_w != 1 && pkt.inter_w != 4);
            assert!(pkt.inter_w < 5);
            seen.insert(pkt.inter_w);
        }
        assert_eq!(seen.len(), 3, "all intermediate W-groups should appear");
    }
}
