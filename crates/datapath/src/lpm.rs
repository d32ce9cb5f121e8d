//! Longest-prefix-match route table. The reference router's lookup core
//! answers in one TCAM access whatever the table holds; the host-side
//! structure behind it is the route set plus a lookup form compiled from
//! it on demand: longest-prefix match flattened into sorted, disjoint
//! address intervals under a direct index over the top 16 address bits.

use netfpga_packet::addr::{Ipv4Address, Ipv4Cidr};
use std::cell::OnceCell;
use std::collections::BTreeMap;

/// One routing-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteEntry {
    /// Gateway to forward to; `UNSPECIFIED` means directly connected (the
    /// destination itself is the next hop).
    pub next_hop: Ipv4Address,
    /// Egress port index.
    pub port: u8,
}

/// The address space cut into intervals that each match one route or none.
struct Compiled {
    /// First address of each interval, ascending; `starts[0] == 0`.
    starts: Vec<u32>,
    /// The longest route matching interval `i`, if any.
    vals: Vec<Option<RouteEntry>>,
    /// `index[h]` counts the intervals starting below `h << 16`, so those
    /// starting inside bucket `h` are `starts[index[h]..index[h + 1]]`.
    index: Vec<u32>,
}

impl Compiled {
    /// One sweep over the ordered routes with a stack of the prefixes still
    /// open: an interval starts where a route starts and where one ends,
    /// and belongs to the innermost prefix open there.
    fn build(routes: &BTreeMap<(u32, u8), RouteEntry>) -> Compiled {
        let (mut starts, mut vals) = (vec![0u32], vec![None]);
        // Whatever was cut at `at` before is overruled.
        let mut cut = |at: u32, val: Option<RouteEntry>| {
            if starts.last() == Some(&at) {
                vals.pop();
            } else {
                starts.push(at);
            }
            vals.push(val);
        };
        // Open prefixes, outermost first: (one past the last address, entry).
        let mut open: Vec<(u64, RouteEntry)> = Vec::new();
        let bounds = routes
            .iter()
            .map(|(&(net, len), &e)| (u64::from(net), len, Some(e)));
        // A final bound past the address space closes whatever is still open.
        for (start, len, entry) in bounds.chain([(1 << 32, 0, None)]) {
            while let Some(&(end, _)) = open.last().filter(|o| o.0 <= start) {
                open.pop();
                if let Ok(end) = u32::try_from(end) {
                    cut(end, open.last().map(|&(_, e)| e));
                }
            }
            if let Some(e) = entry {
                cut(start as u32, Some(e));
                open.push((start + (1u64 << (32 - len)), e));
            }
        }
        let mut index = vec![0u32; (1 << 16) + 1];
        for &s in &starts {
            index[(s >> 16) as usize + 1] += 1;
        }
        let mut below = 0;
        for slot in &mut index {
            below += *slot;
            *slot = below;
        }
        Compiled {
            starts,
            vals,
            index,
        }
    }
}

impl std::fmt::Debug for Compiled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Compiled({} intervals)", self.starts.len())
    }
}

/// An LPM table mapping IPv4 prefixes to [`RouteEntry`]s.
///
/// ```
/// use netfpga_datapath::lpm::{LpmTable, RouteEntry};
/// use netfpga_packet::Ipv4Address;
///
/// let mut table = LpmTable::new();
/// table.insert(
///     "10.0.0.0/8".parse().unwrap(),
///     RouteEntry { next_hop: Ipv4Address::UNSPECIFIED, port: 0 },
/// );
/// table.insert(
///     "10.1.0.0/16".parse().unwrap(),
///     RouteEntry { next_hop: Ipv4Address::UNSPECIFIED, port: 1 },
/// );
/// // Longest prefix wins.
/// assert_eq!(table.lookup("10.1.2.3".parse().unwrap()).unwrap().port, 1);
/// assert_eq!(table.lookup("10.9.9.9".parse().unwrap()).unwrap().port, 0);
/// ```
#[derive(Debug, Default)]
pub struct LpmTable {
    /// The truth, ordered by `(network, prefix length)`: a prefix sorts
    /// before every prefix nested inside it.
    routes: BTreeMap<(u32, u8), RouteEntry>,
    /// The lookup form of `routes`: dropped by every change, rebuilt by the
    /// next lookup.
    compiled: OnceCell<Compiled>,
}

fn key(prefix: Ipv4Cidr) -> (u32, u8) {
    (prefix.network().to_u32(), prefix.prefix_len())
}

impl LpmTable {
    /// An empty table.
    pub fn new() -> LpmTable {
        LpmTable::default()
    }

    /// Number of installed routes.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// True if no route is installed.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Insert (or replace) a route for `prefix`. Returns the previous entry
    /// for the exact prefix, if any.
    pub fn insert(&mut self, prefix: Ipv4Cidr, entry: RouteEntry) -> Option<RouteEntry> {
        self.compiled.take();
        self.routes.insert(key(prefix), entry)
    }

    /// Remove the route for the exact `prefix`. Returns the removed entry.
    pub fn remove(&mut self, prefix: Ipv4Cidr) -> Option<RouteEntry> {
        self.compiled.take();
        self.routes.remove(&key(prefix))
    }

    /// Longest-prefix lookup.
    pub fn lookup(&self, addr: Ipv4Address) -> Option<RouteEntry> {
        let c = self.compiled.get_or_init(|| Compiled::build(&self.routes));
        let addr = addr.to_u32();
        let bucket = (addr >> 16) as usize;
        let (lo, hi) = (c.index[bucket] as usize, c.index[bucket + 1] as usize);
        // Interval 0 starts at address 0, so at least one start is <= addr.
        c.vals[lo + c.starts[lo..hi].partition_point(|&s| s <= addr) - 1]
    }

    /// Resolve the next-hop IP for `dst`: the gateway, or `dst` itself on a
    /// directly connected route. `None` if no route matches.
    pub fn next_hop(&self, dst: Ipv4Address) -> Option<(Ipv4Address, u8)> {
        let e = self.lookup(dst)?;
        let nh = if e.next_hop.is_unspecified() {
            dst
        } else {
            e.next_hop
        };
        Some((nh, e.port))
    }

    /// Remove every route.
    pub fn clear(&mut self) {
        self.compiled.take();
        self.routes.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cidr(s: &str) -> Ipv4Cidr {
        s.parse().unwrap()
    }

    fn ip(s: &str) -> Ipv4Address {
        s.parse().unwrap()
    }

    fn entry(port: u8) -> RouteEntry {
        RouteEntry {
            next_hop: ip("192.168.0.1"),
            port,
        }
    }

    #[test]
    fn longest_prefix_wins() {
        let mut t = LpmTable::new();
        t.insert(cidr("10.0.0.0/8"), entry(0));
        t.insert(cidr("10.1.0.0/16"), entry(1));
        t.insert(cidr("10.1.2.0/24"), entry(2));
        assert_eq!(t.lookup(ip("10.1.2.3")).unwrap().port, 2);
        assert_eq!(t.lookup(ip("10.1.9.9")).unwrap().port, 1);
        assert_eq!(t.lookup(ip("10.9.9.9")).unwrap().port, 0);
        assert_eq!(t.lookup(ip("11.0.0.1")), None);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn default_route() {
        let mut t = LpmTable::new();
        t.insert(cidr("0.0.0.0/0"), entry(7));
        t.insert(cidr("10.0.0.0/8"), entry(1));
        assert_eq!(t.lookup(ip("8.8.8.8")).unwrap().port, 7);
        assert_eq!(t.lookup(ip("10.0.0.1")).unwrap().port, 1);
    }

    #[test]
    fn host_route() {
        let mut t = LpmTable::new();
        t.insert(cidr("10.0.0.0/8"), entry(0));
        t.insert(cidr("10.0.0.5/32"), entry(9));
        assert_eq!(t.lookup(ip("10.0.0.5")).unwrap().port, 9);
        assert_eq!(t.lookup(ip("10.0.0.6")).unwrap().port, 0);
    }

    #[test]
    fn replace_and_remove() {
        let mut t = LpmTable::new();
        assert_eq!(t.insert(cidr("10.0.0.0/24"), entry(1)), None);
        assert_eq!(t.insert(cidr("10.0.0.0/24"), entry(2)), Some(entry(1)));
        assert_eq!(t.len(), 1);
        assert_eq!(t.remove(cidr("10.0.0.0/24")), Some(entry(2)));
        assert_eq!(t.remove(cidr("10.0.0.0/24")), None);
        assert!(t.is_empty());
        assert_eq!(t.lookup(ip("10.0.0.1")), None);
    }

    #[test]
    fn next_hop_resolution() {
        let mut t = LpmTable::new();
        // Directly connected: next hop is the destination.
        t.insert(
            cidr("10.0.1.0/24"),
            RouteEntry {
                next_hop: Ipv4Address::UNSPECIFIED,
                port: 1,
            },
        );
        // Via gateway.
        t.insert(
            cidr("0.0.0.0/0"),
            RouteEntry {
                next_hop: ip("10.0.1.254"),
                port: 1,
            },
        );
        assert_eq!(t.next_hop(ip("10.0.1.9")), Some((ip("10.0.1.9"), 1)));
        assert_eq!(t.next_hop(ip("99.0.0.1")), Some((ip("10.0.1.254"), 1)));
    }

    #[test]
    fn clear_empties() {
        let mut t = LpmTable::new();
        t.insert(cidr("10.0.0.0/8"), entry(0));
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.lookup(ip("10.0.0.1")), None);
    }

    /// The sweep's upper edge: a route that covers 255.255.255.255 ends one
    /// past `u32::MAX` and must neither wrap nor close early.
    #[test]
    fn routes_reaching_the_last_address() {
        let mut t = LpmTable::new();
        t.insert(cidr("255.255.255.255/32"), entry(3));
        assert_eq!(t.lookup(ip("255.255.255.255")).unwrap().port, 3);
        assert_eq!(t.lookup(ip("255.255.255.254")), None);
        assert_eq!(t.lookup(ip("0.0.0.0")), None);
        t.insert(cidr("255.255.0.0/16"), entry(2));
        t.insert(cidr("128.0.0.0/1"), entry(1));
        assert_eq!(t.lookup(ip("255.255.255.255")).unwrap().port, 3);
        assert_eq!(t.lookup(ip("255.255.255.254")).unwrap().port, 2);
        assert_eq!(t.lookup(ip("255.254.255.255")).unwrap().port, 1);
        assert_eq!(t.lookup(ip("127.255.255.255")), None);
        t.remove(cidr("255.255.255.255/32"));
        assert_eq!(t.lookup(ip("255.255.255.255")).unwrap().port, 2);
        t.insert(cidr("0.0.0.0/0"), entry(0));
        assert_eq!(t.lookup(ip("127.255.255.255")).unwrap().port, 0);
        assert_eq!(t.lookup(ip("255.255.255.255")).unwrap().port, 2);
    }

    /// Exhaustive scan: the longest live prefix containing `addr`.
    fn scan(live: &[(Ipv4Cidr, RouteEntry)], addr: u32) -> Option<RouteEntry> {
        live.iter()
            .filter(|(c, _)| c.contains(Ipv4Address::from_u32(addr)))
            .max_by_key(|(c, _)| c.prefix_len())
            .map(|&(_, e)| e)
    }

    proptest! {
        /// Under any interleaving of insert, replace, remove and clear the
        /// table agrees with an exhaustive scan at both ends of the address
        /// space and on and around both edges of every live prefix.
        #[test]
        fn prop_matches_reference(
            ops in proptest::collection::vec(
                (0u8..64, any::<u32>(), 0u8..=32, any::<u8>()),
                0..250,
            ),
        ) {
            // Always there to begin with: a default route, a host route and
            // a chain nested four deep on one address.
            let nest = ["10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "10.1.2.3/32"];
            let fixed = ["0.0.0.0/0", "203.0.113.7/32"]
                .into_iter()
                .chain(nest)
                .map(|s| (0, cidr(s), 0, 99));
            // Random addresses keep two bits of each byte, or all but those,
            // so prefixes nest, repeat (a replace) and reach both edges.
            let random = ops.into_iter().map(|(op, bits, len, port)| {
                let sparse = bits & 0x8181_8181;
                let addr = if bits & 2 == 0 { sparse } else { !sparse };
                (op, Ipv4Cidr::new(Ipv4Address::from_u32(addr), len), bits, port)
            });
            let mut t = LpmTable::new();
            let mut live: Vec<(Ipv4Cidr, RouteEntry)> = Vec::new();
            for (op, prefix, bits, port) in fixed.chain(random) {
                let at = live.iter().position(|(c, _)| {
                    c.network() == prefix.network() && c.prefix_len() == prefix.prefix_len()
                });
                match op {
                    0..=47 => {
                        let e = RouteEntry { next_hop: Ipv4Address::from_u32(bits), port };
                        prop_assert_eq!(t.insert(prefix, e), at.map(|i| live.swap_remove(i).1));
                        live.push((prefix, e));
                    }
                    48..=59 if !live.is_empty() => {
                        let (victim, e) = live.swap_remove(bits as usize % live.len());
                        prop_assert_eq!(t.remove(victim), Some(e));
                    }
                    // An exact prefix, usually not installed.
                    48..=62 => {
                        prop_assert_eq!(t.remove(prefix), at.map(|i| live.swap_remove(i).1));
                    }
                    _ => {
                        t.clear();
                        live.clear();
                    }
                }
                prop_assert_eq!(t.len(), live.len());
                prop_assert_eq!(t.is_empty(), live.is_empty());
                let edges = live.iter().flat_map(|(c, _)| {
                    let first = c.network().to_u32();
                    let last = first | !c.mask();
                    [first.wrapping_sub(1), first, last, last.wrapping_add(1)]
                });
                for probe in [0, u32::MAX].into_iter().chain(edges) {
                    prop_assert_eq!(
                        t.lookup(Ipv4Address::from_u32(probe)),
                        scan(&live, probe),
                        "probe {}", Ipv4Address::from_u32(probe)
                    );
                }
            }
        }
    }
}
