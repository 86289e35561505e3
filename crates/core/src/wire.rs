//! Wire format for RAPTEE protocol messages.
//!
//! The simulation moves typed messages in-process for speed; a
//! deployment speaks bytes over TCP. This module defines the canonical
//! encoding of every protocol message, so the two paths share one
//! vocabulary:
//!
//! ```text
//! byte 0       message tag
//! bytes 1..    fixed fields, little-endian
//! lists        u32 length prefix, then u64 node IDs
//! ```
//!
//! Two properties matter for the protocol's security story and are
//! enforced by tests:
//!
//! * **round-trip** — `decode(encode(m)) == m` for every message;
//! * **shape-indistinguishability** — a trusted view-swap payload is
//!   encoded exactly like a pull answer of the same length (tag and
//!   layout), so an eavesdropper seeing (encrypted, length-preserved)
//!   traffic cannot tell trusted exchanges from ordinary pulls.
//!
//! All payloads are meant to travel inside a
//! [`raptee_net::SecureChannel`]; the encoding itself carries no
//! secrets.

use raptee_crypto::auth::{AuthChallenge, AuthConfirm, AuthResponse, NONCE_LEN};
use raptee_net::NodeId;

/// A RAPTEE wire message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Gossip push: the sender advertises its own ID.
    Push {
        /// The advertised identifier.
        sender: NodeId,
    },
    /// Pull request (always preceded by the authentication exchange).
    PullRequest,
    /// Pull answer: the responder's full view. Also the encoding of the
    /// trusted view-swap payload — deliberately, see the module docs.
    PullAnswer {
        /// The advertised view entries.
        ids: Vec<NodeId>,
    },
    /// Authentication step 1.
    AuthChallenge(AuthChallenge),
    /// Authentication step 2.
    AuthResponse(AuthResponse),
    /// Authentication step 3.
    AuthConfirm(AuthConfirm),
}

/// Message tags (first byte on the wire).
mod tag {
    pub(crate) const PUSH: u8 = 1;
    pub(crate) const PULL_REQUEST: u8 = 2;
    pub(crate) const PULL_ANSWER: u8 = 3;
    pub(crate) const AUTH_CHALLENGE: u8 = 4;
    pub(crate) const AUTH_RESPONSE: u8 = 5;
    pub(crate) const AUTH_CONFIRM: u8 = 6;
}

/// Decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer is empty or shorter than the fixed fields require.
    Truncated,
    /// Unknown message tag.
    UnknownTag(u8),
    /// A declared list length exceeds the remaining buffer.
    BadLength,
    /// Trailing bytes after a complete message.
    TrailingBytes,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            WireError::BadLength => write!(f, "declared length exceeds the buffer"),
            WireError::TrailingBytes => write!(f, "trailing bytes after message"),
        }
    }
}

impl std::error::Error for WireError {}

impl Message {
    /// A short, static label for the message kind ("push",
    /// "pull-answer", ...).
    pub fn kind(&self) -> &'static str {
        match self {
            Message::Push { .. } => "push",
            Message::PullRequest => "pull-request",
            Message::PullAnswer { .. } => "pull-answer",
            Message::AuthChallenge(_) => "auth-challenge",
            Message::AuthResponse(_) => "auth-response",
            Message::AuthConfirm(_) => "auth-confirm",
        }
    }

    /// Encodes the message to bytes.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Message::Push { sender } => {
                let mut out = Vec::with_capacity(9);
                out.push(tag::PUSH);
                out.extend_from_slice(&sender.to_bytes());
                out
            }
            Message::PullRequest => vec![tag::PULL_REQUEST],
            Message::PullAnswer { ids } => {
                let mut out = Vec::with_capacity(5 + ids.len() * 8);
                out.push(tag::PULL_ANSWER);
                out.extend_from_slice(&(ids.len() as u32).to_le_bytes());
                for id in ids {
                    out.extend_from_slice(&id.to_bytes());
                }
                out
            }
            Message::AuthChallenge(c) => {
                let mut out = Vec::with_capacity(1 + NONCE_LEN);
                out.push(tag::AUTH_CHALLENGE);
                out.extend_from_slice(&c.nonce);
                out
            }
            Message::AuthResponse(r) => {
                let mut out = Vec::with_capacity(1 + NONCE_LEN + 32);
                out.push(tag::AUTH_RESPONSE);
                out.extend_from_slice(&r.nonce);
                out.extend_from_slice(&r.tag);
                out
            }
            Message::AuthConfirm(c) => {
                let mut out = Vec::with_capacity(33);
                out.push(tag::AUTH_CONFIRM);
                out.extend_from_slice(&c.tag);
                out
            }
        }
    }

    /// Decodes a message, requiring the buffer to contain exactly one.
    ///
    /// # Errors
    ///
    /// See [`WireError`].
    pub fn decode(buf: &[u8]) -> Result<Message, WireError> {
        let (msg, used) = Self::decode_prefix(buf)?;
        if used != buf.len() {
            return Err(WireError::TrailingBytes);
        }
        Ok(msg)
    }

    /// Decodes one message from the front of `buf`, returning it and the
    /// number of bytes consumed (for streaming decoders).
    ///
    /// # Errors
    ///
    /// See [`WireError`].
    pub(crate) fn decode_prefix(buf: &[u8]) -> Result<(Message, usize), WireError> {
        let (&t, rest) = buf.split_first().ok_or(WireError::Truncated)?;
        match t {
            tag::PUSH => {
                let bytes: [u8; 8] = rest
                    .get(..8)
                    .ok_or(WireError::Truncated)?
                    .try_into()
                    .unwrap();
                Ok((
                    Message::Push {
                        sender: NodeId(u64::from_le_bytes(bytes)),
                    },
                    9,
                ))
            }
            tag::PULL_REQUEST => Ok((Message::PullRequest, 1)),
            tag::PULL_ANSWER => {
                let len_bytes: [u8; 4] = rest
                    .get(..4)
                    .ok_or(WireError::Truncated)?
                    .try_into()
                    .unwrap();
                let len = u32::from_le_bytes(len_bytes) as usize;
                let body = rest.get(4..).ok_or(WireError::Truncated)?;
                let need = len.checked_mul(8).ok_or(WireError::BadLength)?;
                if body.len() < need {
                    return Err(WireError::BadLength);
                }
                let mut ids = Vec::with_capacity(len);
                for chunk in body[..need].chunks_exact(8) {
                    ids.push(NodeId(u64::from_le_bytes(chunk.try_into().unwrap())));
                }
                Ok((Message::PullAnswer { ids }, 1 + 4 + need))
            }
            tag::AUTH_CHALLENGE => {
                let nonce: [u8; NONCE_LEN] = rest
                    .get(..NONCE_LEN)
                    .ok_or(WireError::Truncated)?
                    .try_into()
                    .unwrap();
                Ok((
                    Message::AuthChallenge(AuthChallenge { nonce }),
                    1 + NONCE_LEN,
                ))
            }
            tag::AUTH_RESPONSE => {
                let nonce: [u8; NONCE_LEN] = rest
                    .get(..NONCE_LEN)
                    .ok_or(WireError::Truncated)?
                    .try_into()
                    .unwrap();
                let mac: [u8; 32] = rest
                    .get(NONCE_LEN..NONCE_LEN + 32)
                    .ok_or(WireError::Truncated)?
                    .try_into()
                    .unwrap();
                Ok((
                    Message::AuthResponse(AuthResponse { nonce, tag: mac }),
                    1 + NONCE_LEN + 32,
                ))
            }
            tag::AUTH_CONFIRM => {
                let mac: [u8; 32] = rest
                    .get(..32)
                    .ok_or(WireError::Truncated)?
                    .try_into()
                    .unwrap();
                Ok((Message::AuthConfirm(AuthConfirm { tag: mac }), 33))
            }
            other => Err(WireError::UnknownTag(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Message> {
        vec![
            Message::Push { sender: NodeId(42) },
            Message::PullRequest,
            Message::PullAnswer { ids: vec![] },
            Message::PullAnswer {
                ids: (0..200).map(NodeId).collect(),
            },
            Message::AuthChallenge(AuthChallenge {
                nonce: [7; NONCE_LEN],
            }),
            Message::AuthResponse(AuthResponse {
                nonce: [9; NONCE_LEN],
                tag: [3; 32],
            }),
            Message::AuthConfirm(AuthConfirm { tag: [5; 32] }),
        ]
    }

    #[test]
    fn roundtrip_all_variants() {
        for msg in samples() {
            let bytes = msg.encode();
            assert_eq!(Message::decode(&bytes).unwrap(), msg, "{msg:?}");
        }
    }

    #[test]
    fn streaming_decode() {
        let mut stream = Vec::new();
        for msg in samples() {
            stream.extend(msg.encode());
        }
        let mut offset = 0;
        let mut decoded = Vec::new();
        while offset < stream.len() {
            let (msg, used) = Message::decode_prefix(&stream[offset..]).unwrap();
            decoded.push(msg);
            offset += used;
        }
        assert_eq!(decoded, samples());
    }

    #[test]
    fn truncation_detected() {
        for msg in samples() {
            let bytes = msg.encode();
            if bytes.len() > 1 {
                let cut = &bytes[..bytes.len() - 1];
                assert!(
                    Message::decode(cut).is_err(),
                    "truncated {msg:?} must not decode"
                );
            }
        }
        assert_eq!(Message::decode(&[]).unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn unknown_tag_rejected() {
        assert_eq!(
            Message::decode(&[99]).unwrap_err(),
            WireError::UnknownTag(99)
        );
    }

    #[test]
    fn oversized_length_rejected() {
        // Claims 1M ids but carries none: must fail without allocating.
        let mut buf = vec![3u8]; // PULL_ANSWER
        buf.extend_from_slice(&1_000_000u32.to_le_bytes());
        assert_eq!(Message::decode(&buf).unwrap_err(), WireError::BadLength);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = Message::PullRequest.encode();
        bytes.push(0);
        assert_eq!(
            Message::decode(&bytes).unwrap_err(),
            WireError::TrailingBytes
        );
    }

    #[test]
    fn swap_payload_is_shape_identical_to_pull_answer() {
        // The trusted swap ships `c/2` entries as a PullAnswer; for equal
        // lengths the encodings are byte-layout identical, so encrypted
        // traffic does not reveal trusted exchanges.
        let swap_half = Message::PullAnswer {
            ids: (100..110).map(NodeId).collect(),
        };
        let ordinary = Message::PullAnswer {
            ids: (200..210).map(NodeId).collect(),
        };
        assert_eq!(swap_half.encode().len(), ordinary.encode().len());
        assert_eq!(swap_half.kind(), ordinary.kind());
    }

    #[test]
    fn encrypted_roundtrip_through_secure_channel() {
        use raptee_crypto::SecretKey;
        use raptee_net::SecureChannel;
        let base = SecretKey::from_seed(1);
        let mut tx = SecureChannel::new(&base, NodeId(1), NodeId(2));
        let mut rx = SecureChannel::new(&base, NodeId(1), NodeId(2));
        let msg = Message::PullAnswer {
            ids: (0..50).map(NodeId).collect(),
        };
        let ct = tx.seal_from_initiator(&msg.encode());
        let pt = rx.open_from_initiator(&ct);
        assert_eq!(Message::decode(&pt).unwrap(), msg);
        // Length preservation: ciphertext length = encoded length.
        assert_eq!(ct.len(), msg.encode().len());
    }

    #[test]
    fn kind_labels_each_variant_once() {
        let kinds: Vec<&str> = samples().iter().map(Message::kind).collect();
        assert_eq!(
            kinds,
            [
                "push",
                "pull-request",
                "pull-answer",
                "pull-answer",
                "auth-challenge",
                "auth-response",
                "auth-confirm"
            ]
        );
    }

    #[test]
    fn encoded_lengths_follow_the_layout() {
        let lens: Vec<usize> = samples().iter().map(|m| m.encode().len()).collect();
        assert_eq!(
            lens,
            [9, 1, 5, 5 + 200 * 8, 1 + NONCE_LEN, 1 + NONCE_LEN + 32, 33]
        );
    }

    #[test]
    fn every_encoding_starts_with_its_tag() {
        let tags: Vec<u8> = samples().iter().map(|m| m.encode()[0]).collect();
        assert_eq!(tags, [1, 2, 3, 3, 4, 5, 6]);
    }

    #[test]
    fn integers_are_little_endian() {
        let push = Message::Push {
            sender: NodeId(0x0102_0304_0506_0708),
        };
        assert_eq!(push.encode(), [1, 8, 7, 6, 5, 4, 3, 2, 1]);
        let answer = Message::PullAnswer {
            ids: vec![NodeId(0x0a0b)],
        };
        assert_eq!(
            answer.encode(),
            [3, 1, 0, 0, 0, 0x0b, 0x0a, 0, 0, 0, 0, 0, 0]
        );
    }

    #[test]
    fn pull_answer_without_a_full_length_prefix_is_truncated() {
        for cut in 1..5 {
            let bytes = &Message::PullAnswer { ids: vec![] }.encode()[..cut];
            assert_eq!(Message::decode(bytes).unwrap_err(), WireError::Truncated);
        }
    }

    #[test]
    fn largest_declared_length_is_a_bad_length() {
        let mut buf = vec![3u8];
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0; 16]);
        assert_eq!(Message::decode(&buf).unwrap_err(), WireError::BadLength);
    }

    #[test]
    fn decode_prefix_leaves_the_rest_of_the_stream() {
        let mut bytes = Message::Push { sender: NodeId(5) }.encode();
        bytes.extend(Message::PullRequest.encode());
        let (first, used) = Message::decode_prefix(&bytes).unwrap();
        assert_eq!(first, Message::Push { sender: NodeId(5) });
        assert_eq!(used, 9);
        assert_eq!(
            Message::decode_prefix(&bytes[used..]).unwrap(),
            (Message::PullRequest, 1)
        );
    }

    #[test]
    fn errors_read_as_sentences() {
        assert_eq!(WireError::Truncated.to_string(), "message truncated");
        assert_eq!(
            WireError::UnknownTag(0).to_string(),
            "unknown message tag 0"
        );
        assert_eq!(
            WireError::BadLength.to_string(),
            "declared length exceeds the buffer"
        );
        assert_eq!(
            WireError::TrailingBytes.to_string(),
            "trailing bytes after message"
        );
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_message() -> impl Strategy<Value = Message> {
        prop_oneof![
            any::<u64>().prop_map(|v| Message::Push { sender: NodeId(v) }),
            Just(Message::PullRequest),
            proptest::collection::vec(any::<u64>(), 0..300).prop_map(|v| Message::PullAnswer {
                ids: v.into_iter().map(NodeId).collect()
            }),
            any::<[u8; NONCE_LEN]>()
                .prop_map(|nonce| Message::AuthChallenge(AuthChallenge { nonce })),
            (any::<[u8; NONCE_LEN]>(), any::<[u8; 32]>())
                .prop_map(|(nonce, tag)| Message::AuthResponse(AuthResponse { nonce, tag })),
            any::<[u8; 32]>().prop_map(|tag| Message::AuthConfirm(AuthConfirm { tag })),
        ]
    }

    proptest! {
        /// Every encodable message round-trips.
        #[test]
        fn roundtrip(msg in arb_message()) {
            let bytes = msg.encode();
            prop_assert_eq!(Message::decode(&bytes).unwrap(), msg);
        }

        /// The decoder never panics on arbitrary bytes.
        #[test]
        fn decoder_total(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = Message::decode(&bytes);
        }

        /// decode_prefix consumption is consistent with encode length.
        #[test]
        fn prefix_consumption(msg in arb_message(), suffix in proptest::collection::vec(any::<u8>(), 0..32)) {
            let mut bytes = msg.encode();
            let encoded_len = bytes.len();
            bytes.extend_from_slice(&suffix);
            let (decoded, used) = Message::decode_prefix(&bytes).unwrap();
            prop_assert_eq!(decoded, msg);
            prop_assert_eq!(used, encoded_len);
        }
    }
}
