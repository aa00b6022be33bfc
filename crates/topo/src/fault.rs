//! Deterministic fault injection: seeded sampling of failed links and
//! routers, explicit failure lists, and cycle-scheduled degradation.
//!
//! ## Determinism contract
//!
//! [`FaultSet::sample`] is a pure function of `(network, spec)`: the same
//! [`FaultSpec`] on the same [`NetworkDesc`] always yields the identical
//! fault set, on every platform and for every partition/worker count — the
//! sampler draws from private [`SplitMix64`] streams derived from
//! `spec.seed` and walks links/routers in construction order. Resilience
//! experiments are therefore exactly reproducible from `(topology
//! parameters, seed, fractions)` alone.
//!
//! ## What fails
//!
//! * **Links** fail as undirected pairs: a physical cable/trace carries
//!   both unidirectional channels, so sampling kills both directions
//!   together. Endpoint injection/ejection channels are *not* sampled (they
//!   are NIC wiring, not fabric) — they only die with their router.
//! * **Routers** fail whole: a dead router takes every attached channel
//!   with it, including its endpoints' injection/ejection channels
//!   ([`wsdf_sim::FaultMap::seal`]).
//!
//! Fractions request `round(fraction × population)` failures, selected by
//! a seeded partial Fisher–Yates shuffle — exact counts, not Bernoulli
//! noise, so a sweep over fractions is monotone in failure *count*.

use crate::RouterKind;
use wsdf_sim::json::{Json, Value};
use wsdf_sim::json_object;
use wsdf_sim::{FaultMap, NetworkDesc, SplitMix64, Terminus};

/// What to fail, and how. See the module docs for the determinism contract.
///
/// In JSON ([`Json`]) every field is optional and defaults as
/// [`FaultSpec::default`]; a fraction outside `[0, 1]` is rejected.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Seed of the sampling streams.
    pub seed: u64,
    /// Fraction of undirected router-router links to fail (0.0 ..= 1.0).
    pub link_fraction: f64,
    /// Fraction of routers to fail (0.0 ..= 1.0).
    pub router_fraction: f64,
    /// Explicitly failed channels (by channel id; the paired reverse
    /// channel of a router-router link dies too).
    pub explicit_links: Vec<u32>,
    /// Explicitly failed routers (by router id).
    pub explicit_routers: Vec<u32>,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            seed: 0xFA17_5EED,
            link_fraction: 0.0,
            router_fraction: 0.0,
            explicit_links: Vec::new(),
            explicit_routers: Vec::new(),
        }
    }
}

impl FaultSpec {
    /// Spec failing `fraction` of links (routers untouched).
    pub fn links(fraction: f64, seed: u64) -> Self {
        FaultSpec {
            seed,
            link_fraction: fraction,
            ..Default::default()
        }
    }

    /// Spec failing `fraction` of routers (links only die with them).
    pub fn routers(fraction: f64, seed: u64) -> Self {
        FaultSpec {
            seed,
            router_fraction: fraction,
            ..Default::default()
        }
    }

    /// True when the spec can never fail anything.
    pub fn is_empty(&self) -> bool {
        self.link_fraction <= 0.0
            && self.router_fraction <= 0.0
            && self.explicit_links.is_empty()
            && self.explicit_routers.is_empty()
    }

    /// Sanity checks.
    pub fn validate(&self) -> Result<(), String> {
        for (name, f) in [
            ("link_fraction", self.link_fraction),
            ("router_fraction", self.router_fraction),
        ] {
            if !(0.0..=1.0).contains(&f) {
                return Err(format!("{name} = {f} outside [0, 1]"));
            }
        }
        Ok(())
    }

    /// Check the explicit ids against `net`, routers first, as
    /// [`FaultSet::sample`] would, but as an error (`"explicit_links[2]:
    /// channel 999 out of range (the fabric has 96 channels)"`) instead
    /// of a panic.
    pub fn check_ids(&self, net: &NetworkDesc) -> Result<(), String> {
        for (key, ids, what, count) in [
            (
                "explicit_routers",
                &self.explicit_routers,
                "router",
                net.num_routers(),
            ),
            (
                "explicit_links",
                &self.explicit_links,
                "channel",
                net.channels.len(),
            ),
        ] {
            if let Some((i, id)) = ids.iter().enumerate().find(|(_, &id)| id as usize >= count) {
                return Err(format!(
                    "{key}[{i}]: {what} {id} out of range (the fabric has {count} {what}s)"
                ));
            }
        }
        Ok(())
    }
}

/// Reject a fraction outside `[0, 1]`, NaN (read from `null`) included.
fn unit_fraction(x: &f64, path: &str) -> Result<(), String> {
    if (0.0..=1.0).contains(x) {
        Ok(())
    } else {
        Err(format!("{path}: expected number in [0, 1]"))
    }
}

json_object!(FaultSpec, FaultSpec::default();
    seed?, link_fraction? if unit_fraction, router_fraction? if unit_fraction, explicit_links?,
    explicit_routers?,
);

/// A sampled, sealed fault assignment for one network.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSet {
    map: FaultMap,
    dead_links: u32,
    dead_routers: u32,
}

impl FaultSet {
    /// Nothing failed.
    pub fn empty(net: &NetworkDesc) -> Self {
        FaultSet {
            map: FaultMap::pristine(net),
            dead_links: 0,
            dead_routers: 0,
        }
    }

    /// Sample `spec` over `net` (see the module docs). Panics on an invalid
    /// spec or on explicit ids out of range, which [`FaultSpec::check_ids`]
    /// reports as an error.
    pub fn sample(net: &NetworkDesc, spec: &FaultSpec) -> Self {
        spec.validate().expect("invalid FaultSpec");
        let mut map = FaultMap::pristine(net);

        // Undirected fabric links: each router-router channel pair, keyed
        // by its lower channel id, in construction order.
        let links = undirected_links(net);

        // Routers to fail: seeded partial Fisher-Yates over all routers.
        let k_routers = exact_count(spec.router_fraction, net.num_routers());
        let mut rng = SplitMix64::for_agent(spec.seed, 0xDEAD_0001);
        for r in sample_indices(net.num_routers(), k_routers, &mut rng) {
            map.kill_router(r as u32);
        }
        for &r in &spec.explicit_routers {
            assert!(
                (r as usize) < net.num_routers(),
                "explicit router {r} out of range"
            );
            map.kill_router(r);
        }

        // Links to fail, drawn from an independent stream so adding router
        // faults never reshuffles which links die.
        let k_links = exact_count(spec.link_fraction, links.len());
        let mut rng = SplitMix64::for_agent(spec.seed, 0xDEAD_0002);
        for i in sample_indices(links.len(), k_links, &mut rng) {
            let (a, b) = links[i];
            map.kill_channel(a);
            map.kill_channel(b);
        }
        for &c in &spec.explicit_links {
            assert!(
                (c as usize) < net.channels.len(),
                "explicit channel {c} out of range"
            );
            map.kill_channel(c);
            if let Some(&(a, b)) = links.iter().find(|&&(a, b)| a == c || b == c) {
                map.kill_channel(a);
                map.kill_channel(b);
            }
        }

        map.seal(net);
        Self::from_map(net, map)
    }

    /// Wrap an existing (sealed) map, recounting undirected dead links and
    /// dead routers.
    pub fn from_map(net: &NetworkDesc, map: FaultMap) -> Self {
        map.validate(net).expect("fault map does not match network");
        let dead_links = undirected_links(net)
            .iter()
            .filter(|&&(a, b)| map.channel_dead(a) || map.channel_dead(b))
            .count() as u32;
        let dead_routers = map.dead_routers() as u32;
        FaultSet {
            map,
            dead_links,
            dead_routers,
        }
    }

    /// The engine-facing fault map.
    pub fn map(&self) -> &FaultMap {
        &self.map
    }

    /// True when nothing failed (a pristine run).
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Failed undirected fabric links (a link counts once even if both of
    /// its channels died, or if it died as collateral of a router).
    pub fn dead_links(&self) -> u32 {
        self.dead_links
    }

    /// Failed routers.
    pub fn dead_routers(&self) -> u32 {
        self.dead_routers
    }

    /// Routers still alive.
    pub fn live_routers(&self) -> usize {
        self.map.live_routers()
    }
}

/// One scheduled degradation step.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Cycle at which this failure batch strikes.
    pub cycle: u64,
    /// What fails at that cycle (sampled independently per event; give
    /// events distinct seeds unless overlap is intended).
    pub spec: FaultSpec,
}

/// A cycle-ordered schedule of fault events for mid-run degradation
/// studies.
///
/// Failures are **cumulative and permanent**: the fault state at cycle `t`
/// is the union of every event with `cycle ≤ t` (no repair model). The
/// epoch decomposition ([`FaultSchedule::epochs`]) drives degradation
/// timelines: one simulation segment per epoch, each against the sealed
/// union of all failures so far — deterministic because every event's
/// sample is deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// Empty schedule (always pristine).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a failure batch at `cycle`. Events may be pushed in any order.
    pub fn push(&mut self, cycle: u64, spec: FaultSpec) -> &mut Self {
        self.events.push(FaultEvent { cycle, spec });
        self.events.sort_by_key(|e| e.cycle);
        self
    }

    /// The scheduled events, cycle-ordered.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Cumulative fault set in effect at `cycle` (union of all events with
    /// `event.cycle <= cycle`).
    pub fn at_cycle(&self, net: &NetworkDesc, cycle: u64) -> FaultSet {
        let mut map = FaultMap::pristine(net);
        for e in self.events.iter().filter(|e| e.cycle <= cycle) {
            map.union(FaultSet::sample(net, &e.spec).map());
        }
        FaultSet::from_map(net, map)
    }

    /// Epoch decomposition: `(start_cycle, cumulative fault set)` for cycle
    /// 0 and after every event, deduplicated by start cycle. The first
    /// epoch always starts at 0 (pristine unless an event strikes at 0).
    pub fn epochs(&self, net: &NetworkDesc) -> Vec<(u64, FaultSet)> {
        let mut starts: Vec<u64> = std::iter::once(0)
            .chain(self.events.iter().map(|e| e.cycle))
            .collect();
        starts.dedup();
        starts
            .into_iter()
            .map(|c| (c, self.at_cycle(net, c)))
            .collect()
    }
}

json_object!(FaultEvent, FaultEvent { cycle: 0, spec: FaultSpec::default() }; cycle, spec);

/// The cycle-ordered event array. Events may appear in any order; they
/// are re-sorted by cycle like [`FaultSchedule::push`].
impl Json for FaultSchedule {
    fn write(&self, out: &mut String) {
        self.events.write(out);
    }

    fn read(v: &Value, path: &str) -> Result<Self, String> {
        let mut events = Vec::<FaultEvent>::read(v, path)?;
        events.sort_by_key(|e| e.cycle);
        Ok(FaultSchedule { events })
    }
}

/// Undirected router-router links as channel-id pairs `(lower, upper)`,
/// in channel-id order of the lower id. A channel's reverse is the one
/// leaving its destination port toward its source port, found through a
/// per-(router, port) index of outgoing channels, so `net` must pass
/// [`NetworkDesc::validate`] (no port sends on two channels). Unpaired
/// unidirectional channels count as their own link.
pub fn undirected_links(net: &NetworkDesc) -> Vec<(u32, u32)> {
    let first = net.port_offsets();
    // Router-router channels as (channel, source port, destination port),
    // ports numbered as by `port_offsets`.
    let fabric = || {
        net.channels
            .iter()
            .enumerate()
            .filter_map(|(c, ch)| match (ch.src, ch.dst) {
                (
                    Terminus::Router {
                        router: r1,
                        port: p1,
                    },
                    Terminus::Router {
                        router: r2,
                        port: p2,
                    },
                ) => Some((
                    c as u32,
                    first[r1 as usize] + usize::from(p1),
                    first[r2 as usize] + usize::from(p2),
                )),
                _ => None,
            })
    };
    // Per port: the router-router channel leaving it and that channel's
    // destination port.
    let mut out = vec![(u32::MAX, 0); first[net.num_routers()]];
    for (c, s, t) in fabric() {
        out[s] = (c, t);
    }
    let mut links = Vec::new();
    for (c, s, t) in fabric() {
        match out[t] {
            (rev, back) if rev != u32::MAX && rev != c && back == s => {
                if c < rev {
                    links.push((c, rev));
                }
            }
            _ => links.push((c, c)),
        }
    }
    links
}

/// `round(fraction × n)`, clamped to `0..=n`.
fn exact_count(fraction: f64, n: usize) -> usize {
    ((fraction * n as f64).round() as usize).min(n)
}

/// The first `k` entries of a seeded Fisher-Yates shuffle of `0..n`,
/// sorted ascending (selection is order-independent; sorting keeps the
/// kill order deterministic too).
fn sample_indices(n: usize, k: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    let k = k.min(n);
    for i in 0..k {
        let j = i + rng.next_below((n - i) as u64) as usize;
        idx.swap(i, j);
    }
    let mut picked = idx[..k].to_vec();
    picked.sort_unstable();
    picked
}

/// Routers of a [`crate::SwitchlessFabric`] that are *converters* (useful
/// for yield-defect studies that spare the compute cores).
pub fn converter_routers(kinds: &[RouterKind]) -> Vec<u32> {
    kinds
        .iter()
        .enumerate()
        .filter(|(_, k)| matches!(k, RouterKind::Converter { .. }))
        .map(|(i, _)| i as u32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SlParams, SwitchlessFabric};

    fn wgroup_net() -> NetworkDesc {
        SwitchlessFabric::build(&SlParams::radix16().with_wgroups(1)).net
    }

    #[test]
    fn zero_fraction_is_empty_and_pristine() {
        let net = wgroup_net();
        let fs = FaultSet::sample(&net, &FaultSpec::links(0.0, 7));
        assert!(fs.is_empty());
        assert_eq!(fs.dead_links(), 0);
        assert_eq!(fs.dead_routers(), 0);
        assert_eq!(fs.live_routers(), net.num_routers());
    }

    #[test]
    fn sampling_is_deterministic_in_seed() {
        let net = wgroup_net();
        let a = FaultSet::sample(&net, &FaultSpec::links(0.1, 42));
        let b = FaultSet::sample(&net, &FaultSpec::links(0.1, 42));
        assert_eq!(a, b);
        let c = FaultSet::sample(&net, &FaultSpec::links(0.1, 43));
        assert_ne!(a, c, "different seeds should fail different links");
    }

    #[test]
    fn link_fraction_kills_exact_round_count_in_pairs() {
        let net = wgroup_net();
        let n_links = undirected_links(&net).len();
        let fs = FaultSet::sample(&net, &FaultSpec::links(0.1, 9));
        assert_eq!(
            fs.dead_links() as usize,
            (0.1 * n_links as f64).round() as usize
        );
        assert_eq!(fs.dead_routers(), 0);
        // Both directions of every failed link die.
        for (a, b) in undirected_links(&net) {
            assert_eq!(fs.map().channel_dead(a), fs.map().channel_dead(b));
        }
    }

    #[test]
    fn router_faults_take_their_channels_along() {
        let net = wgroup_net();
        let spec = FaultSpec {
            explicit_routers: vec![3],
            ..Default::default()
        };
        let fs = FaultSet::sample(&net, &spec);
        assert_eq!(fs.dead_routers(), 1);
        assert!(fs.map().router_dead(3));
        for (c, ch) in net.channels.iter().enumerate() {
            let touches = [ch.src, ch.dst].iter().any(|t| t.router() == Some(3));
            if touches {
                assert!(fs.map().channel_dead(c as u32), "channel {c} survived");
            }
        }
    }

    #[test]
    fn explicit_link_kills_its_pair() {
        let net = wgroup_net();
        let (a, b) = undirected_links(&net)[5];
        let spec = FaultSpec {
            explicit_links: vec![a],
            ..Default::default()
        };
        let fs = FaultSet::sample(&net, &spec);
        assert!(fs.map().channel_dead(a));
        assert!(fs.map().channel_dead(b));
        assert_eq!(fs.dead_links(), 1);
    }

    /// The `HashMap` pairing [`undirected_links`] replaced, kept as its
    /// reference.
    fn reference_undirected_links(net: &NetworkDesc) -> Vec<(u32, u32)> {
        let mut by_ends = std::collections::HashMap::new();
        for (c, ch) in net.channels.iter().enumerate() {
            if let (
                Terminus::Router {
                    router: r1,
                    port: p1,
                },
                Terminus::Router {
                    router: r2,
                    port: p2,
                },
            ) = (ch.src, ch.dst)
            {
                by_ends.insert((r1, p1, r2, p2), c as u32);
            }
        }
        let mut links = Vec::new();
        for (&(r1, p1, r2, p2), &c) in &by_ends {
            match by_ends.get(&(r2, p2, r1, p1)) {
                Some(&rev) if rev != c => {
                    if c < rev {
                        links.push((c, rev));
                    }
                }
                _ => links.push((c, c)),
            }
        }
        links.sort_unstable();
        links
    }

    #[test]
    fn undirected_links_match_the_reference() {
        use crate::{single_mesh, SwParams, SwitchFabric};
        use wsdf_sim::{ChannelClass, ChannelDesc};
        // Three routers: links 0-2 and 0-1, a one-way channel 1 → 2 whose
        // destination port sends elsewhere (2 → 1 on another port), and a
        // self-loop channel on router 2.
        let mut hand = NetworkDesc::new();
        for r in 0..3 {
            hand.add_router(4);
            let e = hand.add_endpoint(r);
            hand.attach_endpoint(e, r, 0, 1, 1);
        }
        let one_way = |(r1, p1), (r2, p2)| {
            ChannelDesc::router_to_router(r1, p1, r2, p2, 1, 1, ChannelClass::ShortReach)
        };
        hand.connect((0, 2), (2, 3), 1, 1, ChannelClass::ShortReach);
        hand.add_channel(one_way((1, 2), (2, 1)));
        hand.add_channel(one_way((2, 2), (2, 2)));
        hand.connect((0, 1), (1, 1), 1, 1, ChannelClass::ShortReach);
        hand.add_channel(one_way((2, 1), (1, 3)));
        hand.validate().unwrap();
        assert_eq!(
            undirected_links(&hand),
            vec![(6, 7), (8, 8), (9, 9), (10, 11), (12, 12)]
        );
        let nets = [
            ("hand-built", hand),
            ("switch-less 1 W-group", wgroup_net()),
            (
                "switch-less 10 W-groups",
                SwitchlessFabric::build(&SlParams::radix16().with_wgroups(10)).net,
            ),
            (
                "switch-based radix-16",
                SwitchFabric::build(&SwParams::radix16()).net,
            ),
            ("mesh", single_mesh(8, 4, 1).net),
        ];
        for (name, net) in &nets {
            net.validate().unwrap();
            assert_eq!(
                undirected_links(net),
                reference_undirected_links(net),
                "{name}"
            );
        }
    }

    #[test]
    fn undirected_links_cover_fabric_channels_exactly_once() {
        let net = wgroup_net();
        let links = undirected_links(&net);
        let mut seen = std::collections::HashSet::new();
        for (a, b) in &links {
            assert!(seen.insert(*a));
            assert!(seen.insert(*b));
        }
        let rr_channels = net
            .channels
            .iter()
            .filter(|ch| ch.src.router().is_some() && ch.dst.router().is_some())
            .count();
        assert_eq!(seen.len(), rr_channels);
    }

    #[test]
    fn schedule_is_cumulative_and_monotone() {
        let net = wgroup_net();
        let mut sched = FaultSchedule::new();
        sched.push(1000, FaultSpec::links(0.05, 1));
        sched.push(500, FaultSpec::links(0.05, 2));
        let e = sched.epochs(&net);
        assert_eq!(e.len(), 3);
        assert_eq!(e[0].0, 0);
        assert!(e[0].1.is_empty());
        assert_eq!((e[1].0, e[2].0), (500, 1000));
        // Monotone degradation: every later epoch contains the earlier one.
        let mid = &e[1].1;
        let late = &e[2].1;
        assert!(late.dead_links() >= mid.dead_links());
        for c in 0..net.channels.len() as u32 {
            if mid.map().channel_dead(c) {
                assert!(late.map().channel_dead(c), "repair is not modeled");
            }
        }
        assert_eq!(sched.at_cycle(&net, 750), e[1].1);
    }

    #[test]
    fn converter_routers_spares_cores() {
        let f = SwitchlessFabric::build(&SlParams::radix16().with_wgroups(1));
        let convs = converter_routers(&f.kinds);
        assert_eq!(convs.len(), 8 * 12);
        for r in convs {
            assert!(matches!(f.kind(r), RouterKind::Converter { .. }));
        }
    }

    #[test]
    fn fault_spec_json_round_trips() {
        let spec = FaultSpec {
            seed: 42,
            link_fraction: 0.125,
            router_fraction: 0.0625,
            explicit_links: vec![3, 9],
            explicit_routers: vec![7],
        };
        let v = Value::parse(&wsdf_sim::json::to_string(&spec)).unwrap();
        assert_eq!(FaultSpec::read(&v, "t").unwrap(), spec);
        // Defaults apply field by field.
        let v = Value::parse(r#"{"link_fraction": 0.5}"#).unwrap();
        let s = FaultSpec::read(&v, "t").unwrap();
        assert_eq!(s.seed, FaultSpec::default().seed);
        assert_eq!(s.link_fraction, 0.5);
    }

    #[test]
    fn fault_spec_json_errors_are_precise() {
        let cases: &[(&str, &str)] = &[
            (
                r#"{"link_fraction": 1.5}"#,
                "t.link_fraction: expected number in [0, 1]",
            ),
            (
                r#"{"router_fraction": -0.1}"#,
                "t.router_fraction: expected number in [0, 1]",
            ),
            (
                r#"{"link_fraction": null}"#,
                "t.link_fraction: expected number in [0, 1]",
            ),
            (
                r#"{"seed": "abc"}"#,
                "t.seed: expected non-negative integer",
            ),
            (
                r#"{"explicit_links": [1, "x"]}"#,
                "t.explicit_links[1]: expected non-negative integer",
            ),
            (r#"{"frobnicate": 1}"#, "t.frobnicate: unknown key"),
        ];
        for (doc, want) in cases {
            let v = Value::parse(doc).unwrap();
            assert_eq!(&FaultSpec::read(&v, "t").unwrap_err(), want, "{doc}");
        }
    }

    #[test]
    fn fault_schedule_json_round_trips() {
        let mut sched = FaultSchedule::new();
        sched.push(1000, FaultSpec::links(0.05, 1));
        sched.push(500, FaultSpec::routers(0.1, 2));
        let v = Value::parse(&wsdf_sim::json::to_string(&sched)).unwrap();
        assert_eq!(FaultSchedule::read(&v, "t").unwrap(), sched);
        let v = Value::parse(r#"[{"cycle": 5}]"#).unwrap();
        assert_eq!(
            FaultSchedule::read(&v, "t").unwrap_err(),
            "t[0].spec: missing required key"
        );
        let v = Value::parse(r#"[{"cycle": 5, "spec": {"link_fraction": 7}}]"#).unwrap();
        assert_eq!(
            FaultSchedule::read(&v, "t").unwrap_err(),
            "t[0].spec.link_fraction: expected number in [0, 1]"
        );
    }

    #[test]
    fn invalid_fractions_rejected() {
        assert!(FaultSpec::links(1.5, 0).validate().is_err());
        assert!(FaultSpec::routers(-0.1, 0).validate().is_err());
        assert!(FaultSpec::links(1.0, 0).validate().is_ok());
    }
}
