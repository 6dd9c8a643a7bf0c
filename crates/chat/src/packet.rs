//! Video frame packets.
//!
//! The simulator transports one packet per sampled frame. The payload is a
//! compact binary encoding (sequence number, capture timestamp, frame
//! luminance) in big-endian byte order — enough for the luminance
//! pipeline while exercising a real encode/decode round trip.

/// Byte length of an encoded packet.
pub const WIRE_LEN: usize = 8 + 8 + 8;

/// One video frame on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FramePacket {
    /// Monotone sequence number.
    pub seq: u64,
    /// Capture timestamp, seconds since session start.
    pub capture_ts: f64,
    /// Frame luminance (overall for transmitted video, ROI for received).
    pub luma: f64,
}

impl FramePacket {
    /// Creates a packet.
    pub fn new(seq: u64, capture_ts: f64, luma: f64) -> Self {
        FramePacket {
            seq,
            capture_ts,
            luma,
        }
    }

    /// Encodes the packet to its wire form.
    pub fn encode(&self) -> [u8; WIRE_LEN] {
        let mut wire = [0u8; WIRE_LEN];
        wire[..8].copy_from_slice(&self.seq.to_be_bytes());
        wire[8..16].copy_from_slice(&self.capture_ts.to_be_bytes());
        wire[16..].copy_from_slice(&self.luma.to_be_bytes());
        wire
    }

    /// Decodes a packet from the first [`WIRE_LEN`] bytes of `wire`.
    ///
    /// Returns `None` when the buffer is too short or carries non-finite
    /// fields.
    pub fn decode(wire: &[u8]) -> Option<Self> {
        let field = |i: usize| -> Option<[u8; 8]> { wire.get(8 * i..8 * i + 8)?.try_into().ok() };
        let seq = u64::from_be_bytes(field(0)?);
        let capture_ts = f64::from_be_bytes(field(1)?);
        let luma = f64::from_be_bytes(field(2)?);
        if !capture_ts.is_finite() || !luma.is_finite() {
            return None;
        }
        Some(FramePacket {
            seq,
            capture_ts,
            luma,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let p = FramePacket::new(42, 1.25, 117.5);
        let decoded = FramePacket::decode(&p.encode()).unwrap();
        assert_eq!(p, decoded);
    }

    #[test]
    fn decode_rejects_short_buffer() {
        assert!(FramePacket::decode(&[0u8; 8]).is_none());
    }

    #[test]
    fn decode_rejects_non_finite() {
        let p = FramePacket::new(1, f64::NAN, 10.0);
        assert!(FramePacket::decode(&p.encode()).is_none());
    }

    #[test]
    fn wire_layout_is_big_endian() {
        let wire = FramePacket::new(0x0102, 0.5, -2.0).encode();
        assert_eq!(wire[..8], [0, 0, 0, 0, 0, 0, 1, 2]);
        assert_eq!(wire[8..16], [0x3F, 0xE0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(wire[16..], [0xC0, 0, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn wire_length_is_exact() {
        assert_eq!(FramePacket::new(0, 0.0, 0.0).encode().len(), WIRE_LEN);
    }
}
