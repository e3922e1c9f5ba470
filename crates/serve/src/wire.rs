//! The length-prefixed binary protocol between client and server.
//!
//! One frame = a little-endian `u32` payload length followed by the
//! payload. Encoders build the entire frame (prefix included) into a
//! caller-owned buffer so a request or response is a single `write_all`;
//! decoders parse out of the receive buffer without intermediate copies
//! beyond the byte→`f32` conversion itself. Connections reuse their
//! buffers across frames, so the steady-state hot path allocates nothing.
//!
//! Request payload (opcode [`opcode::PREDICT`]):
//!
//! ```text
//! u8 version | u8 opcode | u32 rows | u32 features | rows*features × f32
//! ```
//!
//! Response payload:
//!
//! ```text
//! u8 version | u8 status | u64 epoch | u32 count | count × f32
//! ```
//!
//! `epoch` tags which published [`EpochSnapshot`] answered the request,
//! making staleness observable at the caller: the load generator reports
//! the lag between served epochs and the newest published one.
//!
//! [`EpochSnapshot`]: buckwild::EpochSnapshot

use std::fmt;
use std::io::{self, Read, Write};

/// Version byte leading every payload; bumped on layout changes.
pub const PROTOCOL_VERSION: u8 = 1;

/// Upper bound on a single frame, guarding the server against a
/// malformed length prefix demanding an unbounded allocation.
pub const MAX_FRAME_BYTES: usize = 1 << 26; // 64 MiB

/// Most a payload buffer grows ahead of the bytes that fill it, so a
/// length prefix alone reserves at most this much.
const PAYLOAD_STEP: usize = 1 << 16; // 64 KiB

/// Request opcodes.
pub mod opcode {
    /// Score a dense row-major batch against the current snapshot.
    pub const PREDICT: u8 = 1;
}

/// Response status codes.
pub mod status {
    /// Scores follow.
    pub const OK: u8 = 0;
    /// The request payload did not parse.
    pub const BAD_REQUEST: u8 = 1;
    /// No snapshot has been published yet (server started before the
    /// first training epoch finished).
    pub const NO_MODEL: u8 = 2;
    /// The request's feature count does not match the model.
    pub const SHAPE_MISMATCH: u8 = 3;
}

const REQUEST_HEADER_BYTES: usize = 1 + 1 + 4 + 4;
const RESPONSE_HEADER_BYTES: usize = 1 + 1 + 8 + 4;

/// A malformed payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Payload shorter than its fixed header.
    Truncated {
        /// Bytes the header requires.
        needed: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// Unknown protocol version byte.
    BadVersion(u8),
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Payload length disagrees with the row/feature counts it declares.
    BadLength {
        /// Bytes the declared shape implies.
        expected: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// Declared shape would exceed [`MAX_FRAME_BYTES`].
    Oversized {
        /// Declared row count.
        rows: u32,
        /// Declared feature count.
        features: u32,
    },
    /// Zero rows or zero features.
    EmptyShape,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, got } => {
                write!(
                    f,
                    "payload truncated: header needs {needed} bytes, got {got}"
                )
            }
            WireError::BadVersion(v) => write!(f, "unknown protocol version {v}"),
            WireError::BadOpcode(op) => write!(f, "unknown opcode {op}"),
            WireError::BadLength { expected, got } => {
                write!(
                    f,
                    "payload length {got} does not match declared shape ({expected})"
                )
            }
            WireError::Oversized { rows, features } => {
                write!(
                    f,
                    "declared shape {rows}x{features} exceeds the frame limit"
                )
            }
            WireError::EmptyShape => write!(f, "batch must have at least one row and feature"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for io::Error {
    fn from(err: WireError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, err)
    }
}

/// Shape of a decoded predict request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestHeader {
    /// Number of examples in the batch.
    pub rows: usize,
    /// Features per example.
    pub features: usize,
}

/// A decoded response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// One of the [`status`] codes.
    pub status: u8,
    /// Epoch tag of the snapshot that answered (0 when no model served).
    pub epoch: u64,
    /// One score per request row (empty unless status is [`status::OK`]).
    pub scores: Vec<f32>,
}

impl Response {
    /// True when the request was answered with scores.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.status == status::OK
    }
}

/// Builds a complete predict-request frame (length prefix included) into
/// `buf`, replacing its contents.
///
/// # Panics
///
/// Panics if `features` is zero or does not divide `batch.len()`.
pub fn encode_request(buf: &mut Vec<u8>, batch: &[f32], features: usize) {
    assert!(features > 0, "features must be positive");
    assert_eq!(
        batch.len() % features,
        0,
        "batch length must be rows * features"
    );
    let rows = batch.len() / features;
    let payload = REQUEST_HEADER_BYTES + 4 * batch.len();
    buf.clear();
    buf.reserve(4 + payload);
    buf.extend_from_slice(&(payload as u32).to_le_bytes());
    buf.push(PROTOCOL_VERSION);
    buf.push(opcode::PREDICT);
    buf.extend_from_slice(&(rows as u32).to_le_bytes());
    buf.extend_from_slice(&(features as u32).to_le_bytes());
    for &x in batch {
        buf.extend_from_slice(&x.to_le_bytes());
    }
}

/// Parses a predict-request payload (the bytes after the length prefix),
/// filling `batch` with the row-major examples.
pub fn decode_request(payload: &[u8], batch: &mut Vec<f32>) -> Result<RequestHeader, WireError> {
    if payload.len() < REQUEST_HEADER_BYTES {
        return Err(WireError::Truncated {
            needed: REQUEST_HEADER_BYTES,
            got: payload.len(),
        });
    }
    if payload[0] != PROTOCOL_VERSION {
        return Err(WireError::BadVersion(payload[0]));
    }
    if payload[1] != opcode::PREDICT {
        return Err(WireError::BadOpcode(payload[1]));
    }
    let rows = u32::from_le_bytes(payload[2..6].try_into().expect("4 bytes"));
    let features = u32::from_le_bytes(payload[6..10].try_into().expect("4 bytes"));
    if rows == 0 || features == 0 {
        return Err(WireError::EmptyShape);
    }
    let numbers = (rows as usize)
        .checked_mul(features as usize)
        .filter(|&n| n <= (MAX_FRAME_BYTES - REQUEST_HEADER_BYTES) / 4)
        .ok_or(WireError::Oversized { rows, features })?;
    let expected = REQUEST_HEADER_BYTES + 4 * numbers;
    if payload.len() != expected {
        return Err(WireError::BadLength {
            expected,
            got: payload.len(),
        });
    }
    read_f32s(&payload[REQUEST_HEADER_BYTES..], batch);
    Ok(RequestHeader {
        rows: rows as usize,
        features: features as usize,
    })
}

/// Builds a complete response frame (length prefix included) into `buf`,
/// replacing its contents.
pub fn encode_response(buf: &mut Vec<u8>, status: u8, epoch: u64, scores: &[f32]) {
    let payload = RESPONSE_HEADER_BYTES + 4 * scores.len();
    buf.clear();
    buf.reserve(4 + payload);
    buf.extend_from_slice(&(payload as u32).to_le_bytes());
    buf.push(PROTOCOL_VERSION);
    buf.push(status);
    buf.extend_from_slice(&epoch.to_le_bytes());
    buf.extend_from_slice(&(scores.len() as u32).to_le_bytes());
    for &s in scores {
        buf.extend_from_slice(&s.to_le_bytes());
    }
}

/// Parses a response payload (the bytes after the length prefix).
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    if payload.len() < RESPONSE_HEADER_BYTES {
        return Err(WireError::Truncated {
            needed: RESPONSE_HEADER_BYTES,
            got: payload.len(),
        });
    }
    if payload[0] != PROTOCOL_VERSION {
        return Err(WireError::BadVersion(payload[0]));
    }
    let status = payload[1];
    let epoch = u64::from_le_bytes(payload[2..10].try_into().expect("8 bytes"));
    let count = u32::from_le_bytes(payload[10..14].try_into().expect("4 bytes")) as usize;
    let expected = RESPONSE_HEADER_BYTES + 4 * count;
    if payload.len() != expected {
        return Err(WireError::BadLength {
            expected,
            got: payload.len(),
        });
    }
    let mut scores = Vec::new();
    read_f32s(&payload[RESPONSE_HEADER_BYTES..], &mut scores);
    Ok(Response {
        status,
        epoch,
        scores,
    })
}

fn read_f32s(bytes: &[u8], out: &mut Vec<f32>) {
    out.clear();
    out.reserve(bytes.len() / 4);
    for chunk in bytes.chunks_exact(4) {
        out.push(f32::from_le_bytes(chunk.try_into().expect("4 bytes")));
    }
}

/// Reads one frame's payload into `buf`. Returns `Ok(false)` on a clean
/// end-of-stream at a frame boundary; mid-frame EOF is an error.
pub fn read_frame<R: Read>(reader: &mut R, buf: &mut Vec<u8>) -> io::Result<bool> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match reader.read(&mut len_bytes[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended inside a frame length prefix",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"),
        ));
    }
    read_payload(reader, buf, len, |err| match err {
        Some(e) if e.kind() != io::ErrorKind::Interrupted => Err(e),
        _ => Ok(()),
    })?;
    Ok(true)
}

/// Reads exactly `len` payload bytes into `buf`, growing it only as bytes
/// arrive, at most [`PAYLOAD_STEP`] ahead of them; a buffer that already
/// has the capacity is reused without allocating. After each read that
/// leaves the payload short, `wait` gets that read's error, if any, and
/// returns `Ok` to read again or an error to abandon the frame.
pub(crate) fn read_payload(
    reader: &mut impl Read,
    buf: &mut Vec<u8>,
    len: usize,
    mut wait: impl FnMut(Option<io::Error>) -> io::Result<()>,
) -> io::Result<()> {
    buf.clear();
    let mut filled = 0;
    while filled < len {
        // Each byte is zeroed once, a step at a time, before it is read.
        if filled == buf.len() {
            buf.resize(len.min(filled + PAYLOAD_STEP), 0);
        }
        let err = match reader.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended inside a frame payload",
                ))
            }
            Ok(n) => {
                filled += n;
                None
            }
            Err(e) => Some(e),
        };
        if filled < len {
            wait(err)?;
        }
    }
    Ok(())
}

/// Writes an already-encoded frame (as built by the `encode_*` helpers)
/// and flushes.
pub fn write_frame<W: Write>(writer: &mut W, frame: &[u8]) -> io::Result<()> {
    writer.write_all(frame)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_bit_exactly() {
        let batch: Vec<f32> = (0..12).map(|i| (i as f32 - 6.0) * 0.37).collect();
        let mut frame = Vec::new();
        encode_request(&mut frame, &batch, 4);
        let mut decoded = Vec::new();
        let header = decode_request(&frame[4..], &mut decoded).expect("valid frame");
        assert_eq!(
            header,
            RequestHeader {
                rows: 3,
                features: 4
            }
        );
        let got: Vec<u32> = decoded.iter().map(|x| x.to_bits()).collect();
        let want: Vec<u32> = batch.iter().map(|x| x.to_bits()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn response_round_trips_bit_exactly() {
        let scores = vec![0.5f32, -1.25, f32::MIN_POSITIVE, 3.0e7];
        let mut frame = Vec::new();
        encode_response(&mut frame, status::OK, 41, &scores);
        let resp = decode_response(&frame[4..]).expect("valid frame");
        assert!(resp.is_ok());
        assert_eq!(resp.epoch, 41);
        let got: Vec<u32> = resp.scores.iter().map(|x| x.to_bits()).collect();
        let want: Vec<u32> = scores.iter().map(|x| x.to_bits()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn frame_io_round_trips_over_a_byte_stream() {
        let mut frame = Vec::new();
        encode_response(&mut frame, status::NO_MODEL, 0, &[]);
        let mut stream = frame.clone();
        encode_request(&mut frame, &[1.0, 2.0], 2);
        stream.extend_from_slice(&frame);

        let mut cursor = io::Cursor::new(stream);
        let mut payload = Vec::new();
        assert!(read_frame(&mut cursor, &mut payload).expect("frame 1"));
        assert_eq!(
            decode_response(&payload).expect("response").status,
            status::NO_MODEL
        );
        assert!(read_frame(&mut cursor, &mut payload).expect("frame 2"));
        let mut batch = Vec::new();
        let header = decode_request(&payload, &mut batch).expect("request");
        assert_eq!(header.rows, 1);
        assert!(!read_frame(&mut cursor, &mut payload).expect("clean EOF"));
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        let mut batch = Vec::new();
        assert_eq!(
            decode_request(&[PROTOCOL_VERSION, opcode::PREDICT], &mut batch),
            Err(WireError::Truncated {
                needed: REQUEST_HEADER_BYTES,
                got: 2
            })
        );

        let mut frame = Vec::new();
        encode_request(&mut frame, &[1.0], 1);
        let mut bad = frame[4..].to_vec();
        bad[0] = 99;
        assert_eq!(
            decode_request(&bad, &mut batch),
            Err(WireError::BadVersion(99))
        );
        let mut bad = frame[4..].to_vec();
        bad[1] = 7;
        assert_eq!(
            decode_request(&bad, &mut batch),
            Err(WireError::BadOpcode(7))
        );
        let mut bad = frame[4..].to_vec();
        bad.pop();
        assert!(matches!(
            decode_request(&bad, &mut batch),
            Err(WireError::BadLength { .. })
        ));

        // A shape whose product overflows the frame limit is refused
        // before any allocation.
        let mut huge = vec![PROTOCOL_VERSION, opcode::PREDICT];
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_request(&huge, &mut batch),
            Err(WireError::Oversized { .. })
        ));

        let mut empty = vec![PROTOCOL_VERSION, opcode::PREDICT];
        empty.extend_from_slice(&0u32.to_le_bytes());
        empty.extend_from_slice(&4u32.to_le_bytes());
        assert_eq!(
            decode_request(&empty, &mut batch),
            Err(WireError::EmptyShape)
        );
    }

    #[test]
    fn oversized_length_prefix_is_refused() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&(MAX_FRAME_BYTES as u32 + 1).to_le_bytes());
        let mut cursor = io::Cursor::new(stream);
        let mut payload = Vec::new();
        let err = read_frame(&mut cursor, &mut payload).expect_err("over limit");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn a_length_prefix_alone_reserves_no_more_than_arrives() {
        // A peer declares the largest legal frame, sends 10 bytes, and
        // hangs up: the buffer must not have grown to the declared size.
        let mut stream = (MAX_FRAME_BYTES as u32).to_le_bytes().to_vec();
        stream.extend_from_slice(&[7; 10]);
        let mut payload = Vec::new();
        let err = read_frame(&mut io::Cursor::new(stream), &mut payload).expect_err("short");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(payload.capacity() <= 1 << 20, "{}", payload.capacity());
    }
}
