//! Length-prefixed JSON framing for the experiment-serving wire
//! protocol.
//!
//! A frame is a 4-byte big-endian length `n` followed by exactly `n`
//! bytes of UTF-8 JSON. The length covers the payload only, never the
//! prefix. `n` is bounded by an explicit per-reader maximum so a
//! hostile or corrupted peer cannot make the reader allocate
//! gigabytes from a four-byte header; oversized frames are rejected
//! *before* any payload is read.
//!
//! Framing errors are deliberately split from transport errors:
//! a clean EOF *between* frames is a normal end of stream
//! ([`read_frame`] returns `Ok(None)`), while an EOF *inside* a frame,
//! an oversized length, or a payload that does not parse as JSON are
//! protocol violations the server answers by dropping the connection
//! (never by panicking).

use crate::json::{Json, JsonError};
use std::fmt;
use std::io::{self, Read, Write};

/// Default upper bound on a frame payload (8 MiB) — far above any grid
/// request or result batch, far below anything that could hurt.
pub const MAX_FRAME_LEN: usize = 8 << 20;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed (includes EOF mid-frame).
    Io(io::Error),
    /// The length prefix exceeded the reader's maximum.
    Oversized {
        /// Length announced by the prefix.
        len: usize,
        /// The reader's configured maximum.
        max: usize,
    },
    /// The payload was not valid UTF-8 JSON.
    Malformed(JsonError),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
            FrameError::Oversized { len, max } => {
                write!(f, "frame length {len} exceeds maximum {max}")
            }
            FrameError::Malformed(e) => write!(f, "malformed frame payload: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one frame: big-endian `u32` payload length, then the compact
/// canonical serialization of `doc`.
///
/// # Errors
///
/// Propagates transport errors from `w`.
pub fn write_frame(w: &mut impl Write, doc: &Json) -> io::Result<()> {
    let payload = doc.to_string_compact();
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame payload over 4 GiB"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload.as_bytes())?;
    w.flush()
}

/// Reads one frame, enforcing `max_len` on the announced payload size.
///
/// Returns `Ok(None)` on a clean EOF at a frame boundary (the peer hung
/// up between requests); an EOF *inside* a frame is an
/// [`FrameError::Io`] with `ErrorKind::UnexpectedEof`.
///
/// # Errors
///
/// [`FrameError`] on transport failure, an oversized length prefix, or
/// a payload that is not valid JSON.
pub fn read_frame(r: &mut impl Read, max_len: usize) -> Result<Option<Json>, FrameError> {
    let mut prefix = [0u8; 4];
    // Hand-rolled first read so EOF-at-boundary and EOF-mid-prefix are
    // distinguishable.
    let mut got = 0;
    while got < prefix.len() {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame length prefix",
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > max_len {
        return Err(FrameError::Oversized { len, max: max_len });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|e| {
        FrameError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("EOF inside {len}-byte frame payload: {e}"),
        ))
    })?;
    let text = std::str::from_utf8(&payload).map_err(|_| {
        FrameError::Malformed(JsonError {
            at: 0,
            msg: "frame payload is not UTF-8",
        })
    })?;
    Json::parse(text).map(Some).map_err(FrameError::Malformed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn doc() -> Json {
        Json::obj(vec![
            ("type", Json::Str("ping".into())),
            ("v", Json::u64(1)),
        ])
    }

    #[test]
    fn round_trips_frames() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &doc()).unwrap();
        write_frame(&mut buf, &Json::Arr(vec![Json::u64(7)])).unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame(&mut r, MAX_FRAME_LEN).unwrap(), Some(doc()));
        assert_eq!(
            read_frame(&mut r, MAX_FRAME_LEN).unwrap(),
            Some(Json::Arr(vec![Json::u64(7)]))
        );
        assert_eq!(read_frame(&mut r, MAX_FRAME_LEN).unwrap(), None);
    }

    #[test]
    fn clean_eof_is_none_but_truncation_is_an_error() {
        // Empty stream: clean end.
        assert!(read_frame(&mut Cursor::new(Vec::new()), 64)
            .unwrap()
            .is_none());
        // Every strict prefix of a valid frame must error, not hang or
        // panic.
        let mut full = Vec::new();
        write_frame(&mut full, &doc()).unwrap();
        for cut in 1..full.len() {
            let err = read_frame(&mut Cursor::new(full[..cut].to_vec()), MAX_FRAME_LEN)
                .expect_err("truncated frame must fail");
            assert!(matches!(err, FrameError::Io(_)), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn oversized_length_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let err = read_frame(&mut Cursor::new(buf), 1024).expect_err("oversized");
        match err {
            FrameError::Oversized { len, max } => {
                assert_eq!(len, u32::MAX as usize);
                assert_eq!(max, 1024);
            }
            other => panic!("expected Oversized, got {other}"),
        }
    }

    #[test]
    fn garbage_payload_is_malformed() {
        let payload = b"{not json";
        let mut buf = Vec::new();
        buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        buf.extend_from_slice(payload);
        assert!(matches!(
            read_frame(&mut Cursor::new(buf), 64),
            Err(FrameError::Malformed(_))
        ));

        // Non-UTF-8 payload.
        let mut buf = Vec::new();
        buf.extend_from_slice(&2u32.to_be_bytes());
        buf.extend_from_slice(&[0xff, 0xfe]);
        assert!(matches!(
            read_frame(&mut Cursor::new(buf), 64),
            Err(FrameError::Malformed(_))
        ));
    }
}
