//! Link-layer and network-layer address types.

use core::fmt;
use core::str::FromStr;

/// A 48-bit Ethernet MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct EthernetAddress(pub [u8; 6]);

impl EthernetAddress {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: EthernetAddress = EthernetAddress([0xff; 6]);

    /// Construct from six octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8, e: u8, f: u8) -> Self {
        EthernetAddress([a, b, c, d, e, f])
    }

    /// Construct from a byte slice. Panics if `data.len() != 6`.
    pub fn from_bytes(data: &[u8]) -> Self {
        let mut bytes = [0u8; 6];
        bytes.copy_from_slice(data);
        EthernetAddress(bytes)
    }

    /// The raw octets.
    pub const fn as_bytes(&self) -> &[u8; 6] {
        &self.0
    }

    /// True for the all-ones broadcast address.
    pub fn is_broadcast(&self) -> bool {
        *self == Self::BROADCAST
    }

    /// True if the I/G bit marks this as a group (multicast) address and it
    /// is not the broadcast address.
    pub fn is_multicast(&self) -> bool {
        self.0[0] & 0x01 != 0 && !self.is_broadcast()
    }

    /// True for unicast (neither multicast nor broadcast, and non-zero).
    pub fn is_unicast(&self) -> bool {
        self.0[0] & 0x01 == 0 && *self != EthernetAddress([0; 6])
    }

    /// True if the U/L bit marks this as locally administered.
    pub fn is_local(&self) -> bool {
        self.0[0] & 0x02 != 0
    }

    /// The address as a `u64` (upper 16 bits zero); handy as a hash-table key
    /// in the learning-switch CAM model.
    pub fn to_u64(&self) -> u64 {
        let mut v = 0u64;
        for &b in &self.0 {
            v = (v << 8) | u64::from(b);
        }
        v
    }

    /// Inverse of [`EthernetAddress::to_u64`]; the upper 16 bits are ignored.
    pub fn from_u64(v: u64) -> Self {
        let b = v.to_be_bytes();
        EthernetAddress([b[2], b[3], b[4], b[5], b[6], b[7]])
    }
}

impl fmt::Display for EthernetAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = &self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

/// Error returned when textual address parsing fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddrParseError;

impl fmt::Display for AddrParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid address syntax")
    }
}

impl std::error::Error for AddrParseError {}

impl FromStr for EthernetAddress {
    type Err = AddrParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut bytes = [0u8; 6];
        let mut parts = s.split(':');
        for byte in bytes.iter_mut() {
            let part = parts.next().ok_or(AddrParseError)?;
            if part.len() != 2 {
                return Err(AddrParseError);
            }
            *byte = u8::from_str_radix(part, 16).map_err(|_| AddrParseError)?;
        }
        if parts.next().is_some() {
            return Err(AddrParseError);
        }
        Ok(EthernetAddress(bytes))
    }
}

/// A 32-bit IPv4 address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Ipv4Address(pub [u8; 4]);

impl Ipv4Address {
    /// The unspecified address `0.0.0.0`.
    pub const UNSPECIFIED: Ipv4Address = Ipv4Address([0; 4]);
    /// The limited broadcast address `255.255.255.255`.
    pub const BROADCAST: Ipv4Address = Ipv4Address([0xff; 4]);

    /// Construct from four octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4Address([a, b, c, d])
    }

    /// Construct from a byte slice. Panics if `data.len() != 4`.
    pub fn from_bytes(data: &[u8]) -> Self {
        let mut bytes = [0u8; 4];
        bytes.copy_from_slice(data);
        Ipv4Address(bytes)
    }

    /// The raw octets.
    pub const fn as_bytes(&self) -> &[u8; 4] {
        &self.0
    }

    /// The address as a host-order `u32` (used by the LPM table).
    pub const fn to_u32(&self) -> u32 {
        u32::from_be_bytes(self.0)
    }

    /// Inverse of [`Ipv4Address::to_u32`].
    pub const fn from_u32(v: u32) -> Self {
        Ipv4Address(v.to_be_bytes())
    }

    /// True for the limited broadcast address.
    pub fn is_broadcast(&self) -> bool {
        *self == Self::BROADCAST
    }

    /// True for class-D multicast (`224.0.0.0/4`).
    pub fn is_multicast(&self) -> bool {
        self.0[0] & 0xf0 == 0xe0
    }

    /// True for loopback (`127.0.0.0/8`).
    pub fn is_loopback(&self) -> bool {
        self.0[0] == 127
    }

    /// True for the unspecified address.
    pub fn is_unspecified(&self) -> bool {
        *self == Self::UNSPECIFIED
    }

    /// True for addresses usable as a unicast source or destination.
    pub fn is_unicast(&self) -> bool {
        !(self.is_broadcast() || self.is_multicast() || self.is_unspecified())
    }
}

impl fmt::Display for Ipv4Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = &self.0;
        write!(f, "{}.{}.{}.{}", b[0], b[1], b[2], b[3])
    }
}

impl FromStr for Ipv4Address {
    type Err = AddrParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut bytes = [0u8; 4];
        let mut parts = s.split('.');
        for byte in bytes.iter_mut() {
            let part = parts.next().ok_or(AddrParseError)?;
            if part.is_empty() || part.len() > 3 {
                return Err(AddrParseError);
            }
            *byte = part.parse().map_err(|_| AddrParseError)?;
        }
        if parts.next().is_some() {
            return Err(AddrParseError);
        }
        Ok(Ipv4Address(bytes))
    }
}

impl From<std::net::Ipv4Addr> for Ipv4Address {
    fn from(a: std::net::Ipv4Addr) -> Self {
        Ipv4Address(a.octets())
    }
}

impl From<Ipv4Address> for std::net::Ipv4Addr {
    fn from(a: Ipv4Address) -> Self {
        std::net::Ipv4Addr::from(a.0)
    }
}

/// An IPv4 address plus prefix length, e.g. `10.0.1.0/24`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ipv4Cidr {
    address: Ipv4Address,
    prefix_len: u8,
}

impl Ipv4Cidr {
    /// Construct a CIDR block. Panics if `prefix_len > 32`.
    pub fn new(address: Ipv4Address, prefix_len: u8) -> Self {
        assert!(prefix_len <= 32, "prefix length out of range");
        Ipv4Cidr {
            address,
            prefix_len,
        }
    }

    /// The (unmasked) address component.
    pub fn address(&self) -> Ipv4Address {
        self.address
    }

    /// The prefix length in bits.
    pub fn prefix_len(&self) -> u8 {
        self.prefix_len
    }

    /// The netmask as an address, e.g. `255.255.255.0` for `/24`.
    pub fn netmask(&self) -> Ipv4Address {
        Ipv4Address::from_u32(self.mask())
    }

    /// The netmask as a host-order `u32`.
    pub fn mask(&self) -> u32 {
        if self.prefix_len == 0 {
            0
        } else {
            u32::MAX << (32 - u32::from(self.prefix_len))
        }
    }

    /// The network address (address with host bits cleared).
    pub fn network(&self) -> Ipv4Address {
        Ipv4Address::from_u32(self.address.to_u32() & self.mask())
    }

    /// True if `addr` falls within this block.
    pub fn contains(&self, addr: Ipv4Address) -> bool {
        addr.to_u32() & self.mask() == self.address.to_u32() & self.mask()
    }
}

impl fmt::Display for Ipv4Cidr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.address, self.prefix_len)
    }
}

impl FromStr for Ipv4Cidr {
    type Err = AddrParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s.split_once('/').ok_or(AddrParseError)?;
        let address: Ipv4Address = addr.parse()?;
        let prefix_len: u8 = len.parse().map_err(|_| AddrParseError)?;
        if prefix_len > 32 {
            return Err(AddrParseError);
        }
        Ok(Ipv4Cidr {
            address,
            prefix_len,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_display_roundtrip() {
        let a = EthernetAddress::new(0x00, 0x4e, 0x46, 0x50, 0x47, 0x41);
        assert_eq!(a.to_string(), "00:4e:46:50:47:41");
        assert_eq!("00:4e:46:50:47:41".parse::<EthernetAddress>().unwrap(), a);
    }

    #[test]
    fn mac_parse_rejects_garbage() {
        assert!("00:11:22:33:44".parse::<EthernetAddress>().is_err());
        assert!("00:11:22:33:44:55:66".parse::<EthernetAddress>().is_err());
        assert!("gg:11:22:33:44:55".parse::<EthernetAddress>().is_err());
        assert!("0:11:22:33:44:55".parse::<EthernetAddress>().is_err());
    }

    #[test]
    fn mac_classification() {
        assert!(EthernetAddress::BROADCAST.is_broadcast());
        assert!(!EthernetAddress::BROADCAST.is_multicast());
        assert!(EthernetAddress::new(0x01, 0, 0x5e, 0, 0, 1).is_multicast());
        assert!(EthernetAddress::new(0x00, 0x11, 0x22, 0x33, 0x44, 0x55).is_unicast());
        assert!(EthernetAddress::new(0x02, 0, 0, 0, 0, 1).is_local());
    }

    #[test]
    fn mac_u64_roundtrip() {
        let a = EthernetAddress::new(0xde, 0xad, 0xbe, 0xef, 0x12, 0x34);
        assert_eq!(EthernetAddress::from_u64(a.to_u64()), a);
    }

    #[test]
    fn ipv4_display_roundtrip() {
        let a = Ipv4Address::new(192, 168, 1, 200);
        assert_eq!(a.to_string(), "192.168.1.200");
        assert_eq!("192.168.1.200".parse::<Ipv4Address>().unwrap(), a);
        assert!("192.168.1".parse::<Ipv4Address>().is_err());
        assert!("192.168.1.256".parse::<Ipv4Address>().is_err());
        assert!("192.168.1.2.3".parse::<Ipv4Address>().is_err());
    }

    #[test]
    fn ipv4_classification() {
        assert!(Ipv4Address::new(224, 0, 0, 5).is_multicast());
        assert!(Ipv4Address::new(127, 0, 0, 1).is_loopback());
        assert!(Ipv4Address::BROADCAST.is_broadcast());
        assert!(Ipv4Address::new(10, 1, 2, 3).is_unicast());
        assert!(!Ipv4Address::UNSPECIFIED.is_unicast());
    }

    #[test]
    fn cidr_contains() {
        let net: Ipv4Cidr = "10.0.1.0/24".parse().unwrap();
        assert!(net.contains(Ipv4Address::new(10, 0, 1, 255)));
        assert!(!net.contains(Ipv4Address::new(10, 0, 2, 0)));
        assert_eq!(net.netmask(), Ipv4Address::new(255, 255, 255, 0));
        assert_eq!(net.network(), Ipv4Address::new(10, 0, 1, 0));
    }

    #[test]
    fn cidr_zero_and_full_prefix() {
        let all: Ipv4Cidr = "0.0.0.0/0".parse().unwrap();
        assert!(all.contains(Ipv4Address::new(1, 2, 3, 4)));
        assert_eq!(all.mask(), 0);
        let host: Ipv4Cidr = "10.0.0.1/32".parse().unwrap();
        assert!(host.contains(Ipv4Address::new(10, 0, 0, 1)));
        assert!(!host.contains(Ipv4Address::new(10, 0, 0, 2)));
        assert!("10.0.0.1/33".parse::<Ipv4Cidr>().is_err());
    }
}
