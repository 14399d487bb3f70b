//! Length-prefixed JSON framing for control-plane messages.
//!
//! The original GNF Manager exposes a REST-style API and keeps persistent
//! connections to its Agents. This codec provides the equivalent wire format
//! for this reproduction: each message is serialized as JSON and prefixed
//! with a 4-byte big-endian length, so a stream of messages can be decoded
//! incrementally from a byte buffer regardless of how the transport chunks it.

use bytes::{Buf, BufMut, BytesMut};
use gnf_types::{GnfError, GnfResult};
use serde::de::DeserializeOwned;
use serde::Serialize;

/// Maximum accepted frame size (guards against corrupt length prefixes).
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Encodes one message onto the end of `buf`.
pub fn encode<M: Serialize>(message: &M, buf: &mut BytesMut) -> GnfResult<()> {
    let payload = serde_json::to_vec(message).map_err(|e| GnfError::Codec {
        reason: format!("serialize: {e}"),
    })?;
    if payload.len() > MAX_FRAME_BYTES {
        return Err(GnfError::Codec {
            reason: format!("frame of {} bytes exceeds maximum", payload.len()),
        });
    }
    buf.reserve(4 + payload.len());
    buf.put_u32(payload.len() as u32);
    buf.put_slice(&payload);
    Ok(())
}

/// Attempts to decode one message from the front of `buf`.
///
/// Returns `Ok(None)` when the buffer does not yet contain a complete frame
/// (the caller should read more bytes), `Ok(Some(m))` when a message was
/// decoded (its bytes are consumed), and an error for corrupt frames.
pub fn decode<M: DeserializeOwned>(buf: &mut BytesMut) -> GnfResult<Option<M>> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(GnfError::Codec {
            reason: format!("frame length {len} exceeds maximum"),
        });
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    buf.advance(4);
    let payload = buf.split_to(len);
    let message = serde_json::from_slice(&payload).map_err(|e| GnfError::Codec {
        reason: format!("deserialize: {e}"),
    })?;
    Ok(Some(message))
}

/// Encodes a message into a standalone byte vector.
pub fn encode_to_vec<M: Serialize>(message: &M) -> GnfResult<Vec<u8>> {
    let mut buf = BytesMut::new();
    encode(message, &mut buf)?;
    Ok(buf.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{AgentToManager, ManagerToAgent};
    use gnf_types::StationId;

    #[test]
    fn encode_decode_roundtrip() {
        let mut buf = BytesMut::new();
        let msg = ManagerToAgent::RegisterAck {
            station: StationId::new(4),
        };
        encode(&msg, &mut buf).unwrap();
        let decoded: ManagerToAgent = decode(&mut buf).unwrap().unwrap();
        assert_eq!(decoded, msg);
        assert!(buf.is_empty(), "frame bytes are consumed");
    }

    #[test]
    fn a_prepare_chain_carrying_a_conntrack_table_round_trips() {
        use gnf_nf::testing::{sample_specs, sample_traffic};
        use gnf_nf::{instantiate_chain, Direction, NfContext, NfStateSnapshot};
        use gnf_switch::TrafficSelector;
        use gnf_types::{ChainId, ClientId, MacAddr, MigrationId, SimTime};

        let mut source = instantiate_chain("source", &sample_specs());
        for (ix, packet) in sample_traffic(std::net::Ipv4Addr::new(10, 0, 0, 2))
            .into_iter()
            .enumerate()
        {
            let ctx = NfContext::at(SimTime::from_millis(ix as u64));
            let _ = source.process(packet, Direction::Ingress, &ctx);
        }
        let state = source.export_state();
        assert!(
            matches!(&state[0], NfStateSnapshot::Firewall { established } if established.len() > 1),
            "{state:?}"
        );
        let prepare = |precopy_state| ManagerToAgent::PrepareChain {
            chain: ChainId::new(3),
            client: ClientId::new(4),
            client_mac: MacAddr::derived(3, 4),
            specs: sample_specs(),
            selector: TrafficSelector::all(),
            precopy_state,
            migration: MigrationId::new(9),
        };
        let message = prepare(state);
        let mut buf = BytesMut::new();
        encode(&message, &mut buf).unwrap();
        let bytes = buf.to_vec();
        let decoded: ManagerToAgent = decode(&mut buf).unwrap().unwrap();
        assert_eq!(decoded, message);

        // The target's table, built from the decoded one, encodes to the
        // same bytes as the source's.
        let ManagerToAgent::PrepareChain { precopy_state, .. } = decoded else {
            unreachable!("decoded from a PrepareChain");
        };
        let mut target = instantiate_chain("target", &sample_specs());
        target.import_state(precopy_state);
        assert_eq!(
            encode_to_vec(&prepare(target.export_state())).unwrap(),
            bytes
        );
    }

    #[test]
    fn partial_frames_wait_for_more_bytes() {
        let bytes = encode_to_vec(&AgentToManager::Pong).unwrap();
        let mut buf = BytesMut::new();
        // Feed the frame one byte at a time.
        for (i, byte) in bytes.iter().enumerate() {
            buf.put_u8(*byte);
            let result: Option<AgentToManager> = decode(&mut buf).unwrap();
            if i + 1 < bytes.len() {
                assert!(result.is_none(), "incomplete frame at byte {i}");
            } else {
                assert_eq!(result, Some(AgentToManager::Pong));
            }
        }
    }

    #[test]
    fn multiple_frames_decode_in_order() {
        let mut buf = BytesMut::new();
        encode(&ManagerToAgent::Ping, &mut buf).unwrap();
        encode(
            &ManagerToAgent::RegisterAck {
                station: StationId::new(9),
            },
            &mut buf,
        )
        .unwrap();
        let first: ManagerToAgent = decode(&mut buf).unwrap().unwrap();
        let second: ManagerToAgent = decode(&mut buf).unwrap().unwrap();
        assert_eq!(first, ManagerToAgent::Ping);
        assert_eq!(
            second,
            ManagerToAgent::RegisterAck {
                station: StationId::new(9)
            }
        );
        let third: Option<ManagerToAgent> = decode(&mut buf).unwrap();
        assert!(third.is_none());
    }

    #[test]
    fn corrupt_length_and_payload_are_rejected() {
        // A length prefix far beyond the maximum.
        let mut buf = BytesMut::new();
        buf.put_u32(u32::MAX);
        buf.put_slice(b"junk");
        let err = decode::<ManagerToAgent>(&mut buf).unwrap_err();
        assert_eq!(err.category(), "codec");

        // A valid length but non-JSON payload.
        let mut buf = BytesMut::new();
        buf.put_u32(4);
        buf.put_slice(b"\xff\xff\xff\xff");
        let err = decode::<ManagerToAgent>(&mut buf).unwrap_err();
        assert_eq!(err.category(), "codec");
    }
}
