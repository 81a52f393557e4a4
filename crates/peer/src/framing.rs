//! Length-prefixed framing for byte-stream transports.
//!
//! A TCP connection is a byte stream: one `write` on the sender can
//! arrive as any number of `read`s on the receiver, split anywhere.
//! The [`wire`](crate::wire) frames are self-describing only down to
//! their header line, so stream transports wrap each encoded frame in
//! a 4-byte big-endian length prefix:
//!
//! ```text
//! stream  := frame*
//! frame   := len:u32be payload:[u8; len]      1 <= len <= MAX_FRAME
//! payload := Frame::encode() bytes (see crate::wire)
//! ```
//!
//! [`FrameDecoder`] is the incremental reader: push arbitrary byte
//! chunks in, pop complete payloads out. It tolerates any read-boundary
//! split (property-tested below) but is deliberately unforgiving about
//! corruption: a length of zero or one above [`MAX_FRAME`] poisons the
//! decoder permanently. There is no resynchronization — past a corrupt
//! length header every subsequent byte offset is a guess, and guessing
//! turns one flipped byte into an unbounded stream of plausible-looking
//! garbage frames. The connection owner must drop the connection and
//! let the retry machinery re-cover the loss, exactly as it would for
//! a peer crash.

/// Largest payload a stream transport will frame or accept. Generous:
/// the biggest legitimate frame is an MQP envelope dragging a large
/// `Data` batch, well under a megabyte in every workload; 16 MiB keeps
/// headroom while bounding what a corrupt or hostile length header can
/// make a receiver buffer.
pub const MAX_FRAME: usize = 16 << 20;

/// Bytes of length prefix per frame.
pub const PREFIX: usize = 4;

/// Wraps one encoded wire frame in its length prefix.
///
/// # Panics
/// If `payload` is empty or exceeds [`MAX_FRAME`] — both are protocol
/// bugs at the sender (no [`crate::wire::Frame`] encodes to zero
/// bytes), not conditions to signal to a remote peer.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    assert!(
        !payload.is_empty() && payload.len() <= MAX_FRAME,
        "unframeable payload length {}",
        payload.len()
    );
    let mut out = Vec::with_capacity(PREFIX + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    out
}

/// Why a [`FrameDecoder`] refused its input. Both are fatal to the
/// connection: the decoder stays poisoned afterwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// A length prefix of zero or greater than [`MAX_FRAME`].
    CorruptLength {
        /// The decoded (bad) length.
        len: u64,
    },
    /// The decoder was fed after reporting an error.
    Poisoned,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::CorruptLength { len } => {
                write!(f, "corrupt frame length {len} (max {MAX_FRAME})")
            }
            FrameError::Poisoned => write!(f, "decoder poisoned by an earlier corrupt frame"),
        }
    }
}

/// Incremental frame reader over an arbitrary chunking of the stream.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted opportunistically).
    pos: usize,
    poisoned: bool,
}

impl FrameDecoder {
    /// A fresh decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends bytes read off the stream. Accepts any split: one call
    /// per byte and one call per megabyte decode identically.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.poisoned {
            return; // nothing past a corrupt header is trustworthy
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete payload, if one is buffered.
    ///
    /// * `Ok(Some(payload))` — one frame, prefix stripped.
    /// * `Ok(None)` — need more bytes (a truncated frame is simply an
    ///   incomplete one; it only becomes an error if the connection
    ///   closes, which the connection owner observes, not the decoder).
    /// * `Err(_)` — corrupt length header; the decoder is poisoned and
    ///   every later call errors too.
    // Not `Iterator`: errors are sticky and terminal, which `Result`
    // inside `Option<Item>` would invert.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        if self.poisoned {
            return Err(FrameError::Poisoned);
        }
        let avail = self.buf.len() - self.pos;
        if avail < PREFIX {
            return Ok(None);
        }
        let p = &self.buf[self.pos..self.pos + PREFIX];
        let len = u32::from_be_bytes([p[0], p[1], p[2], p[3]]) as usize;
        if len == 0 || len > MAX_FRAME {
            self.poisoned = true;
            self.buf.clear();
            self.pos = 0;
            return Err(FrameError::CorruptLength { len: len as u64 });
        }
        if avail < PREFIX + len {
            return Ok(None);
        }
        let start = self.pos + PREFIX;
        let payload = self.buf[start..start + len].to_vec();
        self.pos = start + len;
        // Compact once the dead prefix dominates, keeping push() O(1)
        // amortized without unbounded growth on long-lived connections.
        if self.pos > 4096 && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(d: &mut FrameDecoder) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while let Ok(Some(p)) = d.next() {
            out.push(p);
        }
        out
    }

    #[test]
    fn single_frame_roundtrip() {
        let mut d = FrameDecoder::new();
        d.push(&encode_frame(b"hello frame"));
        assert_eq!(drain(&mut d), vec![b"hello frame".to_vec()]);
        assert_eq!((d.buf.len() - d.pos), 0);
        assert_eq!(d.next(), Ok(None));
    }

    #[test]
    fn byte_at_a_time_decoding() {
        let frames: Vec<&[u8]> = vec![b"a", b"second frame", b"x\ny\nz"];
        let stream: Vec<u8> = frames.iter().flat_map(|f| encode_frame(f)).collect();
        let mut d = FrameDecoder::new();
        let mut got = Vec::new();
        for b in stream {
            d.push(&[b]);
            got.extend(drain(&mut d));
        }
        let want: Vec<Vec<u8>> = frames.iter().map(|f| f.to_vec()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn truncated_frame_is_incomplete_not_an_error() {
        let framed = encode_frame(b"truncate me");
        let mut d = FrameDecoder::new();
        d.push(&framed[..framed.len() - 3]);
        assert_eq!(d.next(), Ok(None));
        d.push(&framed[framed.len() - 3..]);
        assert_eq!(d.next(), Ok(Some(b"truncate me".to_vec())));
    }

    #[test]
    fn zero_length_poisons() {
        let mut d = FrameDecoder::new();
        d.push(&[0, 0, 0, 0, b'x']);
        assert_eq!(d.next(), Err(FrameError::CorruptLength { len: 0 }));
        // Poisoned: pushes are ignored, next() keeps erroring.
        d.push(&encode_frame(b"fine"));
        assert_eq!(d.next(), Err(FrameError::Poisoned));
        assert_eq!((d.buf.len() - d.pos), 0);
    }

    #[test]
    fn oversized_length_poisons_without_buffering() {
        let mut d = FrameDecoder::new();
        let bad = (MAX_FRAME as u32 + 1).to_be_bytes();
        d.push(&bad);
        assert_eq!(
            d.next(),
            Err(FrameError::CorruptLength {
                len: MAX_FRAME as u64 + 1
            })
        );
        assert_eq!(d.next(), Err(FrameError::Poisoned));
    }

    #[test]
    #[should_panic(expected = "unframeable")]
    fn empty_payload_is_a_sender_bug() {
        encode_frame(b"");
    }

    #[test]
    fn compaction_keeps_decoding_correct() {
        // Push enough small frames to trigger the compaction path.
        let mut d = FrameDecoder::new();
        let payload = vec![7u8; 300];
        for i in 0..100u32 {
            let mut p = payload.clone();
            p[0] = i as u8;
            d.push(&encode_frame(&p));
            let got = d.next().unwrap().expect("frame");
            assert_eq!(got[0], i as u8);
            assert_eq!(got.len(), 300);
        }
        assert_eq!((d.buf.len() - d.pos), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(0u8..=255u8, 1..200)
    }

    proptest! {
        /// Encode → concatenate → split at arbitrary boundaries →
        /// decode reproduces the exact payload sequence, byte for byte.
        #[test]
        fn split_anywhere_roundtrips(
            payloads in proptest::collection::vec(arb_payload(), 1..8),
            cuts in proptest::collection::vec(0u16..=u16::MAX, 0..12),
        ) {
            let stream: Vec<u8> =
                payloads.iter().flat_map(|p| encode_frame(p)).collect();
            // Derive sorted split points inside the stream from the
            // raw cut draws.
            let mut points: Vec<usize> = cuts
                .iter()
                .map(|&c| c as usize % (stream.len() + 1))
                .collect();
            points.sort_unstable();
            points.dedup();
            let mut d = FrameDecoder::new();
            let mut got = Vec::new();
            let mut prev = 0;
            for p in points.into_iter().chain([stream.len()]) {
                d.push(&stream[prev..p]);
                prev = p;
                while let Some(frame) = d.next().unwrap() {
                    got.push(frame);
                }
            }
            prop_assert_eq!(got, payloads);
            prop_assert_eq!((d.buf.len() - d.pos), 0);
        }

        /// A corrupt length header (zero or oversized) is rejected
        /// without panicking, and the decoder never attempts to
        /// resynchronize past it: everything afterwards — including
        /// perfectly valid frames — is refused.
        #[test]
        fn corrupt_prefix_rejects_and_never_resyncs(
            good_before in proptest::collection::vec(arb_payload(), 0..4),
            bad_len in prop_oneof![
                Just(0u32),
                (MAX_FRAME as u32 + 1)..=u32::MAX,
            ],
            tail in proptest::collection::vec(0u8..=255u8, 0..64),
            good_after in proptest::collection::vec(arb_payload(), 0..4),
        ) {
            let mut d = FrameDecoder::new();
            for p in &good_before {
                d.push(&encode_frame(p));
                prop_assert_eq!(d.next().unwrap(), Some(p.clone()));
            }
            d.push(&bad_len.to_be_bytes());
            d.push(&tail);
            prop_assert_eq!(
                d.next(),
                Err(FrameError::CorruptLength { len: bad_len as u64 })
            );
            // No resync: later pushes of valid frames stay refused.
            for p in &good_after {
                d.push(&encode_frame(p));
                prop_assert_eq!(d.next(), Err(FrameError::Poisoned));
            }
            prop_assert_eq!((d.buf.len() - d.pos), 0);
        }

        /// Arbitrary bytes, pushed in arbitrary splits, never panic the
        /// decoder: every call answers a frame, "incomplete" or an
        /// error, and once it has answered an error it stays poisoned.
        #[test]
        fn arbitrary_bytes_in_any_split_never_panic(
            stream in proptest::collection::vec(0u8..=255, 0..4096),
            cuts in proptest::collection::vec(0u16..=u16::MAX, 0..12),
        ) {
            let mut points: Vec<usize> = cuts
                .iter()
                .map(|&c| c as usize % (stream.len() + 1))
                .collect();
            points.sort_unstable();
            let mut d = FrameDecoder::new();
            let mut failed = false;
            let mut prev = 0;
            for p in points.into_iter().chain([stream.len()]) {
                d.push(&stream[prev..p]);
                prev = p;
                loop {
                    match d.next() {
                        Ok(Some(frame)) => prop_assert!(!failed && !frame.is_empty()),
                        Ok(None) => break,
                        Err(_) if failed => break,
                        Err(_) => failed = true,
                    }
                }
            }
        }

        /// Truncation is never mistaken for corruption: any strict
        /// prefix of a valid stream decodes a prefix of the frames and
        /// then reports "incomplete", not an error.
        #[test]
        fn truncation_is_incomplete_not_corrupt(
            payloads in proptest::collection::vec(arb_payload(), 1..6),
            cut_back in 0u16..=u16::MAX,
        ) {
            let stream: Vec<u8> =
                payloads.iter().flat_map(|p| encode_frame(p)).collect();
            let keep = stream.len() - 1 - (cut_back as usize % stream.len());
            let mut d = FrameDecoder::new();
            d.push(&stream[..keep]);
            let mut got = 0usize;
            loop {
                match d.next() {
                    Ok(Some(p)) => {
                        prop_assert_eq!(&p, &payloads[got]);
                        got += 1;
                    }
                    Ok(None) => break,
                    Err(e) => panic!("truncation misread as corruption: {e}"),
                }
            }
            prop_assert!(got < payloads.len());
        }
    }
}
