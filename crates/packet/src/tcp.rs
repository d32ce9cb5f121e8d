//! TCP header (RFC 793). The platform forwards rather than terminates TCP,
//! so only header parsing/emission is provided — enough for match-action
//! classification (BlueSwitch) and workload generation (OSNT).

use crate::addr::Ipv4Address;
use crate::checksum;
use crate::ipv4::IpProtocol;
use crate::{get_u16, get_u32, set_u16, set_u32, Error, Result};

/// Minimum TCP header length (no options).
pub const MIN_HEADER_LEN: usize = 20;

/// Minimal bitflags implementation so we do not pull in the `bitflags`
/// crate for one type.
macro_rules! bitflags_lite {
    (
        $(#[$meta:meta])*
        pub struct $name:ident : $ty:ty {
            $( $(#[$fmeta:meta])* const $flag:ident = $value:expr; )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
        pub struct $name(pub $ty);

        impl $name {
            $( $(#[$fmeta])* pub const $flag: $name = $name($value); )*

            /// The empty flag set.
            pub const fn empty() -> Self { $name(0) }

            /// True if every flag in `other` is set in `self`.
            pub const fn contains(self, other: $name) -> bool {
                self.0 & other.0 == other.0
            }

            /// The raw bits.
            pub const fn bits(self) -> $ty { self.0 }
        }

        impl core::ops::BitOr for $name {
            type Output = $name;
            fn bitor(self, rhs: $name) -> $name { $name(self.0 | rhs.0) }
        }

        impl core::ops::BitOrAssign for $name {
            fn bitor_assign(&mut self, rhs: $name) { self.0 |= rhs.0; }
        }
    };
}

bitflags_lite! {
    /// TCP flags byte (the six classic flags).
    pub struct TcpFlags: u8 {
        /// FIN: no more data from sender.
        const FIN = 0x01;
        /// SYN: synchronize sequence numbers.
        const SYN = 0x02;
        /// RST: reset the connection.
        const RST = 0x04;
        /// PSH: push function.
        const PSH = 0x08;
        /// ACK: acknowledgment field significant.
        const ACK = 0x10;
        /// URG: urgent pointer significant.
        const URG = 0x20;
    }
}

/// A zero-copy view of a TCP segment.
#[derive(Debug, Clone)]
pub struct TcpPacket<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> TcpPacket<T> {
    /// Wrap a buffer without validation.
    pub const fn new_unchecked(buffer: T) -> Self {
        TcpPacket { buffer }
    }

    /// Wrap a buffer, checking the header and data offset.
    pub fn new_checked(buffer: T) -> Result<Self> {
        let packet = Self::new_unchecked(buffer);
        packet.check()?;
        Ok(packet)
    }

    fn check(&self) -> Result<()> {
        let data = self.buffer.as_ref();
        if data.len() < MIN_HEADER_LEN {
            return Err(Error::Truncated);
        }
        let hlen = self.header_len();
        if hlen < MIN_HEADER_LEN || hlen > data.len() {
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

    /// Sequence number.
    pub fn seq_number(&self) -> u32 {
        get_u32(self.buffer.as_ref(), 4)
    }

    /// Acknowledgment number.
    pub fn ack_number(&self) -> u32 {
        get_u32(self.buffer.as_ref(), 8)
    }

    /// Header length in bytes (data offset × 4).
    pub fn header_len(&self) -> usize {
        usize::from(self.buffer.as_ref()[12] >> 4) * 4
    }

    /// The flags byte.
    pub fn flags(&self) -> TcpFlags {
        TcpFlags(self.buffer.as_ref()[13] & 0x3f)
    }

    /// Window size.
    pub fn window(&self) -> u16 {
        get_u16(self.buffer.as_ref(), 14)
    }

    /// Checksum field.
    pub fn checksum_field(&self) -> u16 {
        get_u16(self.buffer.as_ref(), 16)
    }

    /// Payload after header and options.
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[self.header_len()..]
    }

    /// Verify the checksum given the pseudo-header addresses.
    pub fn verify_checksum(&self, src: Ipv4Address, dst: Ipv4Address) -> bool {
        let data = self.buffer.as_ref();
        let pseudo = checksum::pseudo_header_sum(src, dst, IpProtocol::Tcp, data.len() as u16);
        let c = checksum::checksum_with_pseudo(pseudo, data);
        c == 0 || c == 0xffff
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> TcpPacket<T> {
    /// Set the source port.
    pub fn set_src_port(&mut self, port: u16) {
        set_u16(self.buffer.as_mut(), 0, port);
    }

    /// Set the destination port.
    pub fn set_dst_port(&mut self, port: u16) {
        set_u16(self.buffer.as_mut(), 2, port);
    }

    /// Set the sequence number.
    pub fn set_seq_number(&mut self, seq: u32) {
        set_u32(self.buffer.as_mut(), 4, seq);
    }

    /// Set the acknowledgment number.
    pub fn set_ack_number(&mut self, ack: u32) {
        set_u32(self.buffer.as_mut(), 8, ack);
    }

    /// Set the data offset in bytes (multiple of 4).
    pub fn set_header_len(&mut self, len: usize) {
        debug_assert_eq!(len % 4, 0);
        self.buffer.as_mut()[12] = ((len / 4) as u8) << 4;
    }

    /// Set the flags byte.
    pub fn set_flags(&mut self, flags: TcpFlags) {
        self.buffer.as_mut()[13] = flags.bits();
    }

    /// Set the window size.
    pub fn set_window(&mut self, window: u16) {
        set_u16(self.buffer.as_mut(), 14, window);
    }

    /// Set the checksum field.
    pub fn set_checksum_field(&mut self, csum: u16) {
        set_u16(self.buffer.as_mut(), 16, csum);
    }

    /// Compute and store the checksum over the whole segment.
    pub fn fill_checksum(&mut self, src: Ipv4Address, dst: Ipv4Address) {
        self.set_checksum_field(0);
        let csum = {
            let data = self.buffer.as_ref();
            let pseudo = checksum::pseudo_header_sum(src, dst, IpProtocol::Tcp, data.len() as u16);
            checksum::checksum_with_pseudo(pseudo, data)
        };
        self.set_checksum_field(csum);
    }
}

/// A parsed TCP header (no options).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpRepr {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq_number: u32,
    /// Acknowledgment number.
    pub ack_number: u32,
    /// Flags.
    pub flags: TcpFlags,
    /// Window size.
    pub window: u16,
}

impl TcpRepr {
    /// Parse from a packet view.
    pub fn parse<T: AsRef<[u8]>>(packet: &TcpPacket<T>) -> Result<TcpRepr> {
        packet.check()?;
        Ok(TcpRepr {
            src_port: packet.src_port(),
            dst_port: packet.dst_port(),
            seq_number: packet.seq_number(),
            ack_number: packet.ack_number(),
            flags: packet.flags(),
            window: packet.window(),
        })
    }

    /// Header length emitted (no options).
    pub const fn header_len(&self) -> usize {
        MIN_HEADER_LEN
    }

    /// Emit header + payload and fill the checksum. Returns segment length.
    pub fn emit(
        &self,
        buffer: &mut [u8],
        payload: &[u8],
        src: Ipv4Address,
        dst: Ipv4Address,
    ) -> Result<usize> {
        let total = MIN_HEADER_LEN + payload.len();
        if buffer.len() < total {
            return Err(Error::Exhausted);
        }
        buffer[MIN_HEADER_LEN..total].copy_from_slice(payload);
        let mut packet = TcpPacket::new_unchecked(&mut buffer[..total]);
        packet.set_src_port(self.src_port);
        packet.set_dst_port(self.dst_port);
        packet.set_seq_number(self.seq_number);
        packet.set_ack_number(self.ack_number);
        packet.set_header_len(MIN_HEADER_LEN);
        packet.set_flags(self.flags);
        packet.set_window(self.window);
        set_u16(packet.buffer, 18, 0); // urgent pointer
        packet.fill_checksum(src, dst);
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Address = Ipv4Address::new(192, 168, 0, 1);
    const DST: Ipv4Address = Ipv4Address::new(192, 168, 0, 2);

    fn sample() -> TcpRepr {
        TcpRepr {
            src_port: 443,
            dst_port: 51000,
            seq_number: 0xdeadbeef,
            ack_number: 0x12345678,
            flags: TcpFlags::SYN | TcpFlags::ACK,
            window: 65535,
        }
    }

    #[test]
    fn roundtrip() {
        let repr = sample();
        let payload = b"hello";
        let mut buf = vec![0u8; MIN_HEADER_LEN + payload.len()];
        let n = repr.emit(&mut buf, payload, SRC, DST).unwrap();
        let pkt = TcpPacket::new_checked(&buf[..n]).unwrap();
        assert!(pkt.verify_checksum(SRC, DST));
        assert_eq!(TcpRepr::parse(&pkt).unwrap(), repr);
        assert_eq!(pkt.payload(), payload);
    }

    #[test]
    fn flags_ops() {
        let f = TcpFlags::SYN | TcpFlags::ACK;
        assert!(f.contains(TcpFlags::SYN));
        assert!(f.contains(TcpFlags::ACK));
        assert!(!f.contains(TcpFlags::FIN));
        assert_eq!(f.bits(), 0x12);
    }

    #[test]
    fn bad_data_offset_rejected() {
        let repr = sample();
        let mut buf = vec![0u8; MIN_HEADER_LEN];
        repr.emit(&mut buf, &[], SRC, DST).unwrap();
        buf[12] = 0x20; // data offset 8 bytes < 20
        assert_eq!(
            TcpPacket::new_checked(&buf[..]).unwrap_err(),
            Error::Malformed
        );
        buf[12] = 0xf0; // data offset 60 > buffer
        assert_eq!(
            TcpPacket::new_checked(&buf[..]).unwrap_err(),
            Error::Malformed
        );
    }

    #[test]
    fn corruption_detected() {
        let repr = sample();
        let mut buf = vec![0u8; MIN_HEADER_LEN + 4];
        repr.emit(&mut buf, &[9, 9, 9, 9], SRC, DST).unwrap();
        buf[4] ^= 0x80;
        let pkt = TcpPacket::new_checked(&buf[..]).unwrap();
        assert!(!pkt.verify_checksum(SRC, DST));
    }
}
