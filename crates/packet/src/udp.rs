//! UDP (RFC 768).

use crate::addr::Ipv4Address;
use crate::checksum;
use crate::ipv4::IpProtocol;
use crate::{get_u16, set_u16, Error, Result};

/// UDP header length.
pub const HEADER_LEN: usize = 8;

/// A zero-copy view of a UDP datagram.
#[derive(Debug, Clone)]
pub struct UdpPacket<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> UdpPacket<T> {
    /// Wrap a buffer without validation.
    pub const fn new_unchecked(buffer: T) -> Self {
        UdpPacket { buffer }
    }

    /// Wrap a buffer, checking header and length field consistency.
    pub fn new_checked(buffer: T) -> Result<Self> {
        let packet = Self::new_unchecked(buffer);
        packet.check()?;
        Ok(packet)
    }

    fn check(&self) -> Result<()> {
        let data = self.buffer.as_ref();
        if data.len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        let len = usize::from(self.len_field());
        if len < HEADER_LEN || len > data.len() {
            return Err(Error::Malformed);
        }
        Ok(())
    }

    /// Unwrap, returning the underlying buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }

    /// Source port.
    pub fn src_port(&self) -> u16 {
        get_u16(self.buffer.as_ref(), 0)
    }

    /// Destination port.
    pub fn dst_port(&self) -> u16 {
        get_u16(self.buffer.as_ref(), 2)
    }

    /// The length field (header + payload).
    pub fn len_field(&self) -> u16 {
        get_u16(self.buffer.as_ref(), 4)
    }

    /// Checksum field (zero means "not computed" in IPv4).
    pub fn checksum_field(&self) -> u16 {
        get_u16(self.buffer.as_ref(), 6)
    }

    /// Payload bytes, limited by the length field.
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[HEADER_LEN..usize::from(self.len_field())]
    }

    /// Verify the checksum given the pseudo-header addresses. A zero stored
    /// checksum is accepted (checksum disabled), per IPv4 rules.
    pub fn verify_checksum(&self, src: Ipv4Address, dst: Ipv4Address) -> bool {
        if self.checksum_field() == 0 {
            return true;
        }
        let len = self.len_field();
        let pseudo = checksum::pseudo_header_sum(src, dst, IpProtocol::Udp, len);
        let data = &self.buffer.as_ref()[..usize::from(len)];
        let c = checksum::checksum_with_pseudo(pseudo, data);
        // Valid data with its checksum in place computes to 0 (or 0xffff in
        // the all-zeros degenerate case handled by the zero-mapping).
        c == 0 || c == 0xffff
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> UdpPacket<T> {
    /// Set the source port.
    pub fn set_src_port(&mut self, port: u16) {
        set_u16(self.buffer.as_mut(), 0, port);
    }

    /// Set the destination port.
    pub fn set_dst_port(&mut self, port: u16) {
        set_u16(self.buffer.as_mut(), 2, port);
    }

    /// Set the length field.
    pub fn set_len_field(&mut self, len: u16) {
        set_u16(self.buffer.as_mut(), 4, len);
    }

    /// Set the checksum field.
    pub fn set_checksum_field(&mut self, csum: u16) {
        set_u16(self.buffer.as_mut(), 6, csum);
    }

    /// Compute and store the checksum for the given pseudo-header.
    pub fn fill_checksum(&mut self, src: Ipv4Address, dst: Ipv4Address) {
        self.set_checksum_field(0);
        let len = self.len_field();
        let pseudo = checksum::pseudo_header_sum(src, dst, IpProtocol::Udp, len);
        let csum = {
            let data = &self.buffer.as_ref()[..usize::from(len)];
            checksum::checksum_with_pseudo(pseudo, data)
        };
        self.set_checksum_field(csum);
    }
}

/// A parsed UDP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpRepr {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
}

impl UdpRepr {
    /// Parse from a packet view.
    pub fn parse<T: AsRef<[u8]>>(packet: &UdpPacket<T>) -> Result<UdpRepr> {
        packet.check()?;
        Ok(UdpRepr {
            src_port: packet.src_port(),
            dst_port: packet.dst_port(),
        })
    }

    /// The header length.
    pub const fn header_len(&self) -> usize {
        HEADER_LEN
    }

    /// Emit header + payload into `buffer`, computing the checksum with the
    /// given pseudo-header addresses. Returns the datagram length.
    pub fn emit(
        &self,
        buffer: &mut [u8],
        payload: &[u8],
        src: Ipv4Address,
        dst: Ipv4Address,
    ) -> Result<usize> {
        let total = HEADER_LEN + payload.len();
        if buffer.len() < total || total > usize::from(u16::MAX) {
            return Err(Error::Exhausted);
        }
        buffer[HEADER_LEN..total].copy_from_slice(payload);
        let mut packet = UdpPacket::new_unchecked(&mut buffer[..total]);
        packet.set_src_port(self.src_port);
        packet.set_dst_port(self.dst_port);
        packet.set_len_field(total as u16);
        packet.fill_checksum(src, dst);
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const SRC: Ipv4Address = Ipv4Address::new(10, 0, 0, 1);
    const DST: Ipv4Address = Ipv4Address::new(10, 0, 0, 2);

    #[test]
    fn roundtrip() {
        let repr = UdpRepr {
            src_port: 5353,
            dst_port: 53,
        };
        let payload = b"query";
        let mut buf = vec![0u8; HEADER_LEN + payload.len()];
        let n = repr.emit(&mut buf, payload, SRC, DST).unwrap();
        let pkt = UdpPacket::new_checked(&buf[..n]).unwrap();
        assert_eq!(UdpRepr::parse(&pkt).unwrap(), repr);
        assert_eq!(pkt.payload(), payload);
        assert!(pkt.verify_checksum(SRC, DST));
    }

    #[test]
    fn zero_checksum_accepted() {
        let repr = UdpRepr {
            src_port: 1,
            dst_port: 2,
        };
        let mut buf = vec![0u8; HEADER_LEN + 2];
        repr.emit(&mut buf, &[0xaa, 0xbb], SRC, DST).unwrap();
        let mut pkt = UdpPacket::new_unchecked(&mut buf[..]);
        pkt.set_checksum_field(0);
        let pkt = UdpPacket::new_checked(&buf[..]).unwrap();
        assert!(pkt.verify_checksum(SRC, DST));
    }

    #[test]
    fn corruption_detected() {
        let repr = UdpRepr {
            src_port: 1000,
            dst_port: 2000,
        };
        let mut buf = vec![0u8; HEADER_LEN + 8];
        repr.emit(&mut buf, &[1, 2, 3, 4, 5, 6, 7, 8], SRC, DST)
            .unwrap();
        buf[10] ^= 0x01;
        let pkt = UdpPacket::new_checked(&buf[..]).unwrap();
        assert!(!pkt.verify_checksum(SRC, DST));
    }

    #[test]
    fn length_field_bounds() {
        let mut buf = vec![0u8; 10];
        set_u16(&mut buf, 4, 20); // length > buffer
        assert!(UdpPacket::new_checked(&buf[..]).is_err());
        set_u16(&mut buf, 4, 4); // length < header
        assert!(UdpPacket::new_checked(&buf[..]).is_err());
    }

    proptest! {
        #[test]
        fn prop_roundtrip(
            sp in any::<u16>(), dp in any::<u16>(),
            payload in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            let repr = UdpRepr { src_port: sp, dst_port: dp };
            let mut buf = vec![0u8; HEADER_LEN + payload.len()];
            let n = repr.emit(&mut buf, &payload, SRC, DST).unwrap();
            let pkt = UdpPacket::new_checked(&buf[..n]).unwrap();
            prop_assert!(pkt.verify_checksum(SRC, DST));
            prop_assert_eq!(pkt.payload(), &payload[..]);
        }
    }
}
