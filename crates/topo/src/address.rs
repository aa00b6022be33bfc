//! Configuration parameters and address arithmetic.
//!
//! All layout is regular, so every lookup (router id of a core, converter of
//! a ring position, endpoint of a node, peer of a local/global port) is pure
//! arithmetic — no tables. This is what lets the routing oracles stay
//! allocation-free on the hot path.
//!
//! Both parameter structs round-trip through JSON (`to_json`/`from_json`,
//! built on `wsdf_sim::json`) so scenario files can bind a topology either
//! by paper preset (`"preset": "radix16"`) or field by field.

use wsdf_sim::json::{self, read, Value};

/// Perimeter ring position of an m×m mesh, clockwise from the top-left
/// corner: along the top row (+x), down the right column (−y), along the
/// bottom row (−x), up the left column (+y).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingPos(pub u16);

/// Parameters of a switch-less Dragonfly-on-wafers system (Sec. III-A).
///
/// The external port count is fixed at the perimeter size `k = 4m − 4`,
/// which is exactly the paper's configurations (m=4 → k=12 "radix-16
/// equivalent", m=7 → k=24 "radix-32 equivalent").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlParams {
    /// C-groups per wafer (`a`).
    pub a: u32,
    /// Wafers per W-group (`b`).
    pub b: u32,
    /// Mesh side of a C-group in cores (`m`).
    pub m: u32,
    /// Chiplet side in cores (for chip ids and on-chip/short-reach energy
    /// classing). Must divide `m`.
    pub chiplet: u32,
    /// Instantiated W-groups (1 ..= `max_wgroups()`).
    pub wgroups: u32,
    /// Intra-C-group (mesh) link width in flits/cycle: 1 = paper baseline,
    /// 2 = "2B", 4 = "4B".
    pub mesh_width: u8,
    /// Nodes per chip for per-chip rate normalization; defaults to
    /// `chiplet²`. Overridable for configs whose nominal chip count does
    /// not tile the mesh (the paper's radix-32 case: 49 cores / 8 chips).
    pub nodes_per_chip: f64,
}

impl SlParams {
    /// The paper's radix-16-equivalent configuration (Sec. V-A4):
    /// 4×4-core C-groups (2×2 chiplets of 2×2 cores), 12 external ports
    /// (7 local + 5 global), 8 C-groups per W-group, 41 W-groups,
    /// 1312 chips / 5248 nodes at full scale.
    pub fn radix16() -> Self {
        let mut p = SlParams {
            a: 4,
            b: 2,
            m: 4,
            chiplet: 2,
            wgroups: 0,
            mesh_width: 1,
            nodes_per_chip: 4.0,
        };
        p.wgroups = p.max_wgroups();
        p
    }

    /// The paper's radix-32-equivalent configuration: 7×7-core C-groups,
    /// 24 external ports (15 local + 9 global), 16 C-groups per W-group,
    /// 145 W-groups, 18560 chips at full scale. The nominal 8 chips per
    /// C-group do not tile 49 cores, so `nodes_per_chip = 49/8` is used
    /// purely for rate normalization (see DESIGN.md).
    pub fn radix32() -> Self {
        let mut p = SlParams {
            a: 4,
            b: 4,
            m: 7,
            chiplet: 7,
            wgroups: 0,
            mesh_width: 1,
            nodes_per_chip: 49.0 / 8.0,
        };
        p.wgroups = p.max_wgroups();
        p
    }

    /// Same configuration with a different instantiated W-group count.
    pub fn with_wgroups(mut self, wgroups: u32) -> Self {
        self.wgroups = wgroups;
        self
    }

    /// Same configuration with a different intra-C-group link width
    /// (1 = baseline, 2 = "2B", 4 = "4B").
    pub fn with_mesh_width(mut self, w: u8) -> Self {
        self.mesh_width = w;
        self
    }

    /// C-groups per W-group (`ab`).
    pub fn ab(&self) -> u32 {
        self.a * self.b
    }

    /// External ports per C-group (`k = 4m − 4`, the mesh perimeter).
    pub fn k(&self) -> u32 {
        4 * self.m - 4
    }

    /// Global ports per C-group (`h = k − ab + 1`).
    pub fn h(&self) -> u32 {
        self.k() - self.ab() + 1
    }

    /// Maximum W-groups (`g = abh + 1`).
    pub fn max_wgroups(&self) -> u32 {
        self.ab() * self.h() + 1
    }

    /// Cores (= endpoints) per C-group.
    pub fn cores_per_cgroup(&self) -> u32 {
        self.m * self.m
    }

    /// Routers per C-group (cores + converters).
    pub fn routers_per_cgroup(&self) -> u32 {
        self.cores_per_cgroup() + self.k()
    }

    /// Total C-groups instantiated.
    pub fn num_cgroups(&self) -> u32 {
        self.wgroups * self.ab()
    }

    /// Total endpoints instantiated.
    pub fn num_endpoints(&self) -> u32 {
        self.num_cgroups() * self.cores_per_cgroup()
    }

    /// Total routers instantiated.
    pub fn num_routers(&self) -> u32 {
        self.num_cgroups() * self.routers_per_cgroup()
    }

    /// Chips per C-group (nominal, for reporting).
    pub fn chips_per_cgroup(&self) -> f64 {
        self.cores_per_cgroup() as f64 / self.nodes_per_chip
    }

    /// Validate the configuration. Derived counts are checked in wide
    /// arithmetic before any `u32` accessor runs, so no field values
    /// overflow, and a valid configuration's routers (and with them every
    /// other count) fit the u32 id space.
    pub fn validate(&self) -> Result<(), String> {
        let (per_wgroup, max_wgroups) = self.wgroup_shape()?;
        if self.wgroups == 0 || self.wgroups > max_wgroups {
            return Err(format!(
                "wgroups = {} out of range 1..={max_wgroups}",
                self.wgroups
            ));
        }
        let routers = u64::from(self.wgroups) * u64::from(per_wgroup);
        if routers > u64::from(u32::MAX) {
            return Err(format!(
                "wgroups*ab*(m*m + k) = {routers} routers exceed the u32 id space"
            ));
        }
        if self.chiplet == 0 || !self.m.is_multiple_of(self.chiplet) {
            return Err(format!(
                "chiplet side {} must divide mesh side {}",
                self.chiplet, self.m
            ));
        }
        if self.nodes_per_chip.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err("nodes_per_chip must be positive".into());
        }
        if !matches!(self.mesh_width, 1 | 2 | 4) {
            return Err("mesh_width must be 1, 2 or 4".into());
        }
        Ok(())
    }

    /// Check `m`, `a` and `b`, and return the routers of one W-group,
    /// `ab(m² + k)`, and [`max_wgroups`](Self::max_wgroups). Once this
    /// passes, every per-C-group and per-W-group count fits `u32`
    /// (`max_wgroups = abh + 1 ≤ ab·k + 1` is below the W-group's routers).
    fn wgroup_shape(&self) -> Result<(u32, u32), String> {
        if self.m < 2 {
            return Err("mesh side m must be >= 2".into());
        }
        if self.a == 0 || self.b == 0 {
            return Err("a and b must be >= 1".into());
        }
        let m = u128::from(self.m);
        let ab = u128::from(self.a) * u128::from(self.b);
        let k = 4 * m - 4;
        if ab > k {
            return Err(format!(
                "ab = {ab} exceeds external ports k = {k} (h would be < 1)"
            ));
        }
        // ab ≤ k < 2^34 and m² + k < 2^65: the product cannot overflow.
        let per_wgroup = ab * (m * m + k);
        let per_wgroup = u32::try_from(per_wgroup).map_err(|_| {
            format!("ab*(m*m + k) = {per_wgroup} routers per W-group exceed the u32 id space")
        })?;
        Ok((per_wgroup, self.max_wgroups()))
    }

    /// Canonical one-line JSON form: every field explicit, preset-free, in
    /// declaration order. `from_json(to_json(p)) == p` for any valid `p`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"a\": {}, \"b\": {}, \"m\": {}, \"chiplet\": {}, \"wgroups\": {}, \
             \"mesh_width\": {}, \"nodes_per_chip\": {}}}",
            self.a,
            self.b,
            self.m,
            self.chiplet,
            self.wgroups,
            self.mesh_width,
            json::num(self.nodes_per_chip)
        )
    }

    /// Parse switch-less parameters from a JSON object at `path` (for
    /// error messages). Accepts an optional `"preset"` (`"radix16"` /
    /// `"radix32"`) as the starting point, with any individual field as an
    /// override; without a preset, `a`, `b`, `m` and `chiplet` are
    /// required (`wgroups` defaults to the maximum, `mesh_width` to 1,
    /// `nodes_per_chip` to `chiplet²`). The result is validated.
    pub fn from_json(v: &Value, path: &str) -> Result<Self, String> {
        read::check_keys(
            v,
            path,
            &[
                "preset",
                "a",
                "b",
                "m",
                "chiplet",
                "wgroups",
                "mesh_width",
                "nodes_per_chip",
            ],
        )?;
        let preset = match v.get("preset") {
            None => None,
            Some(p) => match p.as_str() {
                Some("radix16") => Some(SlParams::radix16()),
                Some("radix32") => Some(SlParams::radix32()),
                _ => {
                    return Err(format!(
                        "{path}.preset: expected \"radix16\" or \"radix32\""
                    ))
                }
            },
        };
        let u32f = |key: &str, dflt: Option<u32>| -> Result<u32, String> {
            match (v.get(key), dflt) {
                (None, Some(d)) => Ok(d),
                (None, None) => Err(format!("{path}.{key}: missing required key")),
                (Some(_), _) => {
                    let x = read::field::<u64>(v, path, key)?;
                    u32::try_from(x)
                        .map_err(|_| format!("{path}.{key}: expected non-negative integer"))
                }
            }
        };
        let mut p = SlParams {
            a: u32f("a", preset.map(|p| p.a))?,
            b: u32f("b", preset.map(|p| p.b))?,
            m: u32f("m", preset.map(|p| p.m))?,
            chiplet: u32f("chiplet", preset.map(|p| p.chiplet))?,
            wgroups: u32f("wgroups", preset.map(|p| p.wgroups).or(Some(0)))?,
            mesh_width: {
                let w = u32f(
                    "mesh_width",
                    preset.map(|p| p.mesh_width as u32).or(Some(1)),
                )?;
                u8::try_from(w).map_err(|_| format!("{path}.mesh_width: expected 1, 2 or 4"))?
            },
            nodes_per_chip: 0.0,
        };
        p.nodes_per_chip = match read::opt_f64_field(v, path, "nodes_per_chip")? {
            Some(x) => x,
            None => preset
                .map(|p| p.nodes_per_chip)
                .unwrap_or(f64::from(p.chiplet) * f64::from(p.chiplet)),
        };
        if p.wgroups == 0 {
            p.wgroups = p.wgroup_shape().map_err(|e| format!("{path}: {e}"))?.1;
        }
        p.validate().map_err(|e| format!("{path}: {e}"))?;
        Ok(p)
    }

    // ---- address arithmetic -------------------------------------------

    /// Global C-group index of (w, c).
    pub fn cgroup_index(&self, w: u32, c: u32) -> u32 {
        w * self.ab() + c
    }

    /// Router id of core (x, y) in C-group (w, c).
    pub fn core_router(&self, w: u32, c: u32, x: u32, y: u32) -> u32 {
        self.cgroup_index(w, c) * self.routers_per_cgroup() + y * self.m + x
    }

    /// Router id of the converter with external-port `label` in (w, c).
    pub fn converter_router(&self, w: u32, c: u32, label: u32) -> u32 {
        self.cgroup_index(w, c) * self.routers_per_cgroup() + self.m * self.m + label
    }

    /// Inverse of the router-id mapping: (w, c, kind-local info).
    pub fn router_location(&self, router: u32) -> (u32, u32, u32) {
        let per = self.routers_per_cgroup();
        let cg = router / per;
        let local = router % per;
        (cg / self.ab(), cg % self.ab(), local)
    }

    /// True if the C-group-local router index `local` is a core.
    pub fn local_is_core(&self, local: u32) -> bool {
        local < self.m * self.m
    }

    /// Endpoint id of the core (x, y) in (w, c).
    pub fn endpoint_of(&self, w: u32, c: u32, x: u32, y: u32) -> u32 {
        self.cgroup_index(w, c) * self.cores_per_cgroup() + y * self.m + x
    }

    /// (w, c, x, y) of an endpoint id.
    pub fn endpoint_location(&self, ep: u32) -> (u32, u32, u32, u32) {
        let per = self.cores_per_cgroup();
        let cg = ep / per;
        let local = ep % per;
        (
            cg / self.ab(),
            cg % self.ab(),
            local % self.m,
            local / self.m,
        )
    }

    /// W-group of an endpoint.
    pub fn wgroup_of_endpoint(&self, ep: u32) -> u32 {
        ep / (self.ab() * self.cores_per_cgroup())
    }

    /// Global chip id of an endpoint (chips tile the mesh in
    /// `chiplet`×`chiplet` blocks, row-major per C-group).
    pub fn chip_of_endpoint(&self, ep: u32) -> u32 {
        let (w, c, x, y) = self.endpoint_location(ep);
        let per_side = self.m / self.chiplet;
        let chip_in_cg = (y / self.chiplet) * per_side + (x / self.chiplet);
        self.cgroup_index(w, c) * per_side * per_side + chip_in_cg
    }

    // ---- perimeter ring -----------------------------------------------

    /// Mesh coordinates of perimeter ring position `r` (clockwise from
    /// top-left, see [`RingPos`]).
    pub fn ring_to_xy(&self, r: u32) -> (u32, u32) {
        let m = self.m;
        debug_assert!(r < self.k());
        let side = m - 1;
        if r < side {
            // top row, left→right: (r, m-1)
            (r, m - 1)
        } else if r < 2 * side {
            // right column, top→bottom: (m-1, m-1-(r-side))
            (m - 1, m - 1 - (r - side))
        } else if r < 3 * side {
            // bottom row, right→left: (m-1-(r-2side), 0)
            (m - 1 - (r - 2 * side), 0)
        } else {
            // left column, bottom→top: (0, r-3side)
            (0, r - 3 * side)
        }
    }

    /// Ring position of perimeter core (x, y), or `None` for interior cores.
    pub fn xy_to_ring(&self, x: u32, y: u32) -> Option<u32> {
        let m = self.m;
        let side = m - 1;
        if y == m - 1 && x < side {
            Some(x)
        } else if x == m - 1 && y > 0 {
            Some(side + (m - 1 - y))
        } else if y == 0 && x > 0 {
            Some(2 * side + (m - 1 - x))
        } else if x == 0 && y < side {
            Some(3 * side + y)
        } else {
            None
        }
    }

    // ---- Property-2 port labeling (Fig. 6(b)) ---------------------------

    /// External-port label of C-group `c`'s local port toward peer C-group
    /// `d` (d ≠ c): down-local peers at the lowest labels, then global
    /// ports, then up-local peers.
    pub fn local_port_label(&self, c: u32, d: u32) -> u32 {
        debug_assert_ne!(c, d);
        if d < c {
            d
        } else {
            c + self.h() + (d - c - 1)
        }
    }

    /// External-port label of C-group `c`'s `j`-th global port (0 ≤ j < h).
    pub fn global_port_label(&self, c: u32, j: u32) -> u32 {
        debug_assert!(j < self.h());
        c + j
    }

    /// Inverse: what is external port `label` of C-group `c`? Returns
    /// `PortRole::Local(peer)` or `PortRole::Global(j)`.
    pub fn port_role(&self, c: u32, label: u32) -> PortRole {
        if label < c {
            PortRole::Local(label)
        } else if label < c + self.h() {
            PortRole::Global(label - c)
        } else {
            PortRole::Local(label - self.h() + 1)
        }
    }

    // ---- global (palmtree) wiring ---------------------------------------

    /// W-group-level global port index of (c, j).
    pub fn wgroup_global_port(&self, c: u32, j: u32) -> u32 {
        c * self.h() + j
    }

    /// Peer of W-group `w`'s global port `q` under the relative (palmtree)
    /// arrangement over the *instantiated* W-group count, with trunking
    /// when ports outnumber peers. Returns `None` if the port is unpaired
    /// (count mismatch at reduced scale) or if there are no peers.
    pub fn global_peer(&self, w: u32, q: u32) -> Option<(u32, u32)> {
        let wn = self.wgroups;
        if wn <= 1 {
            return None;
        }
        let ports = self.ab() * self.h();
        debug_assert!(q < ports);
        // Peer W-group by relative offset.
        let off = q % (wn - 1); // offsets 0..wn-2 → peers w+1 .. w+wn-1
        let trunk = q / (wn - 1); // trunk index toward that peer
        let v = (w + off + 1) % wn;
        // Reverse: v's offset toward w.
        let off_back = (w + wn - v - 1) % wn; // ∈ 0..wn-2
        let q_back = off_back + trunk * (wn - 1);
        if q_back >= ports {
            return None;
        }
        Some((v, q_back))
    }
}

/// Role of an external port of a C-group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortRole {
    /// Local port toward the given peer C-group.
    Local(u32),
    /// The `j`-th global port of this C-group.
    Global(u32),
}

/// Parameters of the switch-based Dragonfly baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwParams {
    /// Terminals per switch (`t`).
    pub terminals: u32,
    /// Local ports per switch (`l`); group size is `l + 1`.
    pub locals: u32,
    /// Global ports per switch (`gl`).
    pub globals: u32,
    /// Instantiated groups (1 ..= `max_groups()`).
    pub groups: u32,
}

impl SwParams {
    /// The paper's radix-16 baseline: 4:7:5 split, 41 groups, 1312 chips.
    pub fn radix16() -> Self {
        let mut p = SwParams {
            terminals: 4,
            locals: 7,
            globals: 5,
            groups: 0,
        };
        p.groups = p.max_groups();
        p
    }

    /// The paper's radix-32 baseline: 8:15:9 split, 145 groups, 18560 chips.
    pub fn radix32() -> Self {
        let mut p = SwParams {
            terminals: 8,
            locals: 15,
            globals: 9,
            groups: 0,
        };
        p.groups = p.max_groups();
        p
    }

    /// Same configuration with a different instantiated group count.
    pub fn with_groups(mut self, groups: u32) -> Self {
        self.groups = groups;
        self
    }

    /// Switch radix.
    pub fn radix(&self) -> u32 {
        self.terminals + self.locals + self.globals
    }

    /// Switches per group (`a = l + 1`).
    pub fn switches_per_group(&self) -> u32 {
        self.locals + 1
    }

    /// Maximum groups (`a·gl + 1`).
    pub fn max_groups(&self) -> u32 {
        self.switches_per_group() * self.globals + 1
    }

    /// Endpoints (chips) instantiated.
    pub fn num_endpoints(&self) -> u32 {
        self.groups * self.switches_per_group() * self.terminals
    }

    /// Switches instantiated.
    pub fn num_switches(&self) -> u32 {
        self.groups * self.switches_per_group()
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), String> {
        self.check_ports()?;
        if self.groups == 0 || self.groups > self.max_groups() {
            return Err(format!(
                "groups = {} out of range 1..={}",
                self.groups,
                self.max_groups()
            ));
        }
        if self.groups > 1 && self.globals == 0 {
            return Err("multi-group network needs global ports".into());
        }
        Ok(())
    }

    /// Check the port split: at least one terminal and one local port,
    /// and a radix within the engine's port limit, summed in `u64`. Once
    /// this passes every count fits `u32`: at most 64 switches per group
    /// and 64² + 1 groups.
    fn check_ports(&self) -> Result<(), String> {
        if self.terminals == 0 || self.locals == 0 {
            return Err("terminals and locals must be >= 1".into());
        }
        let radix = u64::from(self.terminals) + u64::from(self.locals) + u64::from(self.globals);
        if radix > wsdf_sim::MAX_PORTS as u64 {
            return Err(format!(
                "radix exceeds engine port limit ({})",
                wsdf_sim::MAX_PORTS
            ));
        }
        Ok(())
    }

    /// Canonical one-line JSON form: every field explicit, preset-free.
    /// `from_json(to_json(p)) == p` for any valid `p`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"terminals\": {}, \"locals\": {}, \"globals\": {}, \"groups\": {}}}",
            self.terminals, self.locals, self.globals, self.groups
        )
    }

    /// Parse switch-based parameters from a JSON object at `path`.
    /// Mirrors [`SlParams::from_json`]: optional `"preset"` plus field
    /// overrides, or all of `terminals`/`locals`/`globals` explicit
    /// (`groups` defaults to the maximum). The result is validated.
    pub fn from_json(v: &Value, path: &str) -> Result<Self, String> {
        read::check_keys(
            v,
            path,
            &["preset", "terminals", "locals", "globals", "groups"],
        )?;
        let preset = match v.get("preset") {
            None => None,
            Some(p) => match p.as_str() {
                Some("radix16") => Some(SwParams::radix16()),
                Some("radix32") => Some(SwParams::radix32()),
                _ => {
                    return Err(format!(
                        "{path}.preset: expected \"radix16\" or \"radix32\""
                    ))
                }
            },
        };
        let u32f = |key: &str, dflt: Option<u32>| -> Result<u32, String> {
            match (v.get(key), dflt) {
                (None, Some(d)) => Ok(d),
                (None, None) => Err(format!("{path}.{key}: missing required key")),
                (Some(_), _) => {
                    let x = read::field::<u64>(v, path, key)?;
                    u32::try_from(x)
                        .map_err(|_| format!("{path}.{key}: expected non-negative integer"))
                }
            }
        };
        let mut p = SwParams {
            terminals: u32f("terminals", preset.map(|p| p.terminals))?,
            locals: u32f("locals", preset.map(|p| p.locals))?,
            globals: u32f("globals", preset.map(|p| p.globals))?,
            groups: u32f("groups", preset.map(|p| p.groups).or(Some(0)))?,
        };
        if p.groups == 0 {
            p.check_ports().map_err(|e| format!("{path}: {e}"))?;
            p.groups = p.max_groups();
        }
        p.validate().map_err(|e| format!("{path}: {e}"))?;
        Ok(p)
    }

    /// Switch router id of (group, idx).
    pub fn switch_router(&self, group: u32, idx: u32) -> u32 {
        group * self.switches_per_group() + idx
    }

    /// (group, idx) of a switch router id.
    pub fn switch_location(&self, router: u32) -> (u32, u32) {
        (
            router / self.switches_per_group(),
            router % self.switches_per_group(),
        )
    }

    /// Endpoint id of terminal `t` on switch (group, idx).
    pub fn endpoint_of(&self, group: u32, idx: u32, t: u32) -> u32 {
        (group * self.switches_per_group() + idx) * self.terminals + t
    }

    /// (group, switch idx, terminal) of an endpoint.
    pub fn endpoint_location(&self, ep: u32) -> (u32, u32, u32) {
        let sw = ep / self.terminals;
        let (g, i) = self.switch_location(sw);
        (g, i, ep % self.terminals)
    }

    /// Group of an endpoint.
    pub fn group_of_endpoint(&self, ep: u32) -> u32 {
        ep / (self.switches_per_group() * self.terminals)
    }

    /// Peer of group `g`'s global port `q` (palmtree over instantiated
    /// groups, trunked like [`SlParams::global_peer`]).
    pub fn global_peer(&self, g: u32, q: u32) -> Option<(u32, u32)> {
        let gn = self.groups;
        if gn <= 1 {
            return None;
        }
        let ports = self.switches_per_group() * self.globals;
        let off = q % (gn - 1);
        let trunk = q / (gn - 1);
        let v = (g + off + 1) % gn;
        let off_back = (g + gn - v - 1) % gn;
        let q_back = off_back + trunk * (gn - 1);
        if q_back >= ports {
            return None;
        }
        Some((v, q_back))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radix16_matches_paper_scale() {
        let p = SlParams::radix16();
        p.validate().unwrap();
        assert_eq!(p.k(), 12);
        assert_eq!(p.ab(), 8);
        assert_eq!(p.h(), 5);
        assert_eq!(p.max_wgroups(), 41);
        assert_eq!(p.num_endpoints(), 5248); // 41 · 8 · 16 on-chip nodes
        assert_eq!(p.num_endpoints() / 4, 1312); // paper counts 1312 chips
    }

    #[test]
    fn radix32_matches_paper_scale() {
        let p = SlParams::radix32();
        p.validate().unwrap();
        assert_eq!(p.k(), 24);
        assert_eq!(p.ab(), 16);
        assert_eq!(p.h(), 9);
        assert_eq!(p.max_wgroups(), 145);
        // 18560 chips at 49/8 nodes per chip.
        let chips = p.num_endpoints() as f64 / p.nodes_per_chip;
        assert!((chips - 18560.0).abs() < 1e-6);
    }

    #[test]
    fn sw_baselines_match_paper_scale() {
        let p = SwParams::radix16();
        p.validate().unwrap();
        assert_eq!(p.radix(), 16);
        assert_eq!(p.max_groups(), 41);
        assert_eq!(p.num_endpoints(), 1312);
        let p = SwParams::radix32();
        assert_eq!(p.radix(), 32);
        assert_eq!(p.max_groups(), 145);
        assert_eq!(p.num_endpoints(), 18560);
    }

    #[test]
    fn ring_roundtrip() {
        for m in [2u32, 3, 4, 5, 7, 9] {
            let p = SlParams {
                m,
                chiplet: 1,
                a: 1,
                b: 1,
                wgroups: 1,
                mesh_width: 1,
                nodes_per_chip: 1.0,
            };
            let k = p.k();
            let mut seen = std::collections::HashSet::new();
            for r in 0..k {
                let (x, y) = p.ring_to_xy(r);
                assert!(x < m && y < m);
                // Perimeter check.
                assert!(x == 0 || y == 0 || x == m - 1 || y == m - 1);
                assert!(seen.insert((x, y)), "duplicate ring coord at {r}");
                assert_eq!(p.xy_to_ring(x, y), Some(r));
            }
            assert_eq!(seen.len(), k as usize);
        }
    }

    #[test]
    fn interior_has_no_ring_position() {
        let p = SlParams::radix16(); // m = 4
        assert_eq!(p.xy_to_ring(1, 1), None);
        assert_eq!(p.xy_to_ring(2, 2), None);
        assert_eq!(p.xy_to_ring(1, 2), None);
    }

    #[test]
    fn ring_consecutive_positions_are_mesh_adjacent() {
        let p = SlParams::radix32(); // m = 7
        let k = p.k();
        for r in 0..k {
            let (x1, y1) = p.ring_to_xy(r);
            let (x2, y2) = p.ring_to_xy((r + 1) % k);
            let d = x1.abs_diff(x2) + y1.abs_diff(y2);
            assert_eq!(d, 1, "ring positions {r},{} not adjacent", (r + 1) % k);
        }
    }

    #[test]
    fn property2_labels_are_a_bijection() {
        let p = SlParams::radix16();
        for c in 0..p.ab() {
            let mut used = vec![false; p.k() as usize];
            for d in 0..p.ab() {
                if d == c {
                    continue;
                }
                let l = p.local_port_label(c, d) as usize;
                assert!(!used[l], "label {l} reused");
                used[l] = true;
                assert_eq!(p.port_role(c, l as u32), PortRole::Local(d));
            }
            for j in 0..p.h() {
                let l = p.global_port_label(c, j) as usize;
                assert!(!used[l], "label {l} reused");
                used[l] = true;
                assert_eq!(p.port_role(c, l as u32), PortRole::Global(j));
            }
            assert!(used.iter().all(|&u| u), "labels not exhaustive for c={c}");
        }
    }

    #[test]
    fn property2_ordering_holds() {
        // down-local < global < up-local for every C-group.
        let p = SlParams::radix16();
        for c in 0..p.ab() {
            for d in 0..c {
                assert!(p.local_port_label(c, d) < p.global_port_label(c, 0));
            }
            for d in (c + 1)..p.ab() {
                assert!(p.local_port_label(c, d) > p.global_port_label(c, p.h() - 1));
            }
        }
    }

    #[test]
    fn palmtree_is_an_involution_full_scale() {
        let p = SlParams::radix16();
        let ports = p.ab() * p.h();
        for w in 0..p.wgroups {
            for q in 0..ports {
                let (v, qb) = p.global_peer(w, q).expect("full scale pairs all ports");
                assert_ne!(v, w, "self-link at w={w} q={q}");
                let (w2, q2) = p.global_peer(v, qb).unwrap();
                assert_eq!((w2, q2), (w, q), "palmtree not involutive");
            }
        }
    }

    #[test]
    fn palmtree_all_to_all_at_reduced_scale() {
        for wn in [2u32, 3, 5, 9] {
            let p = SlParams::radix16().with_wgroups(wn);
            for w in 0..wn {
                let mut peers = std::collections::HashSet::new();
                for q in 0..p.ab() * p.h() {
                    if let Some((v, _)) = p.global_peer(w, q) {
                        peers.insert(v);
                    }
                }
                assert_eq!(peers.len() as u32, wn - 1, "w={w} not all-to-all");
            }
        }
    }

    #[test]
    fn palmtree_reduced_scale_is_consistent() {
        // Every paired port must agree from both sides.
        let p = SlParams::radix16().with_wgroups(9);
        let ports = p.ab() * p.h();
        for w in 0..9 {
            for q in 0..ports {
                if let Some((v, qb)) = p.global_peer(w, q) {
                    assert_eq!(p.global_peer(v, qb), Some((w, q)));
                }
            }
        }
    }

    #[test]
    fn sw_palmtree_consistent() {
        let p = SwParams::radix16();
        let ports = p.switches_per_group() * p.globals;
        for g in 0..p.groups {
            for q in 0..ports {
                let (v, qb) = p.global_peer(g, q).unwrap();
                assert_eq!(p.global_peer(v, qb), Some((g, q)));
                assert_ne!(v, g);
            }
        }
    }

    #[test]
    fn endpoint_roundtrip() {
        let p = SlParams::radix16().with_wgroups(3);
        for ep in 0..p.num_endpoints() {
            let (w, c, x, y) = p.endpoint_location(ep);
            assert_eq!(p.endpoint_of(w, c, x, y), ep);
            assert_eq!(p.wgroup_of_endpoint(ep), w);
        }
    }

    #[test]
    fn chip_ids_tile_the_mesh() {
        let p = SlParams::radix16().with_wgroups(1);
        // 2×2 chiplets → 4 chips per C-group, 4 nodes each.
        let mut counts = std::collections::HashMap::new();
        for ep in 0..p.num_endpoints() {
            *counts.entry(p.chip_of_endpoint(ep)).or_insert(0u32) += 1;
        }
        assert_eq!(counts.len() as u32, p.ab() * 4);
        assert!(counts.values().all(|&v| v == 4));
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut p = SlParams::radix16();
        p.chiplet = 3; // does not divide 4
        assert!(p.validate().is_err());
        let mut p = SlParams::radix16();
        p.wgroups = p.max_wgroups() + 1;
        assert!(p.validate().is_err());
        let mut p = SlParams::radix16();
        p.a = 13;
        p.b = 1; // ab = 13 > k = 12
        assert!(p.validate().is_err());
        let mut p = SwParams::radix16();
        p.groups = 99;
        assert!(p.validate().is_err());
    }

    #[test]
    fn params_json_round_trip() {
        for p in [
            SlParams::radix16(),
            SlParams::radix32(),
            SlParams::radix16().with_wgroups(3).with_mesh_width(2),
        ] {
            let v = Value::parse(&p.to_json()).unwrap();
            assert_eq!(SlParams::from_json(&v, "t").unwrap(), p);
        }
        for p in [SwParams::radix16(), SwParams::radix32().with_groups(5)] {
            let v = Value::parse(&p.to_json()).unwrap();
            assert_eq!(SwParams::from_json(&v, "t").unwrap(), p);
        }
    }

    #[test]
    fn params_from_json_presets_and_overrides() {
        let v = Value::parse(r#"{"preset": "radix16", "wgroups": 2}"#).unwrap();
        let p = SlParams::from_json(&v, "t").unwrap();
        assert_eq!(p, SlParams::radix16().with_wgroups(2));
        let v = Value::parse(r#"{"preset": "radix32"}"#).unwrap();
        assert_eq!(SwParams::from_json(&v, "t").unwrap(), SwParams::radix32());
        // Explicit form without preset: wgroups defaults to the maximum.
        let v = Value::parse(r#"{"a": 4, "b": 2, "m": 4, "chiplet": 2}"#).unwrap();
        let p = SlParams::from_json(&v, "t").unwrap();
        assert_eq!(p.wgroups, p.max_wgroups());
        assert_eq!(p.nodes_per_chip, 4.0);
    }

    #[test]
    fn params_from_json_error_paths_are_precise() {
        let cases: &[(&str, &str)] = &[
            (
                r#"{"preset": "radix99"}"#,
                "t.preset: expected \"radix16\" or \"radix32\"",
            ),
            (
                r#"{"preset": "radix16", "bogus": 1}"#,
                "t.bogus: unknown key",
            ),
            (r#"{"a": 4}"#, "t.b: missing required key"),
            (
                r#"{"preset": "radix16", "m": -3}"#,
                "t.m: expected non-negative integer",
            ),
            (
                r#"{"preset": "radix16", "wgroups": 99}"#,
                "t: wgroups = 99 out of range 1..=41",
            ),
            (
                r#"{"a": 1, "b": 1, "m": 40000, "chiplet": 1, "wgroups": 3}"#,
                "t: wgroups*ab*(m*m + k) = 4800479988 routers exceed the u32 id space",
            ),
            (
                r#"{"a": 1, "b": 1, "m": 4, "chiplet": 100000}"#,
                "t: chiplet side 100000 must divide mesh side 4",
            ),
        ];
        for (doc, want) in cases {
            let v = Value::parse(doc).unwrap();
            assert_eq!(&SlParams::from_json(&v, "t").unwrap_err(), want, "{doc}");
        }
        let v = Value::parse(r#"{"terminals": 4}"#).unwrap();
        assert_eq!(
            SwParams::from_json(&v, "t").unwrap_err(),
            "t.locals: missing required key"
        );
    }

    #[test]
    fn router_id_roundtrip() {
        let p = SlParams::radix16().with_wgroups(2);
        for w in 0..2 {
            for c in 0..p.ab() {
                for y in 0..p.m {
                    for x in 0..p.m {
                        let r = p.core_router(w, c, x, y);
                        let (w2, c2, local) = p.router_location(r);
                        assert_eq!((w2, c2), (w, c));
                        assert!(p.local_is_core(local));
                        assert_eq!(local, y * p.m + x);
                    }
                }
                for l in 0..p.k() {
                    let r = p.converter_router(w, c, l);
                    let (w2, c2, local) = p.router_location(r);
                    assert_eq!((w2, c2), (w, c));
                    assert!(!p.local_is_core(local));
                    assert_eq!(local - p.m * p.m, l);
                }
            }
        }
    }
}
