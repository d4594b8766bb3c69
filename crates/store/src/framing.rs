//! Shared wire-framing plumbing for every protocol built on the store
//! codec's CRC32 frames — replication (`gisolap-repl`), serving
//! (`gisolap-serve`) and sharding (`gisolap-shard`) all speak
//! "one message = one `frame()`", and all need the same three pieces:
//!
//! * [`wire_corrupt`] — a [`StoreError::Corrupt`] attributed to a wire
//!   label instead of a file;
//! * [`decode_single_frame`] — the strict single-frame decode (exactly
//!   one frame, no trailing bytes, torn/empty mapped to `Corrupt`);
//! * [`read_message`] / [`write_message`] — the socket envelope: a
//!   capped length prefix ([`MAX_MESSAGE`]) so a mangled prefix can
//!   never drive a multi-gigabyte allocation, CRC checked before any
//!   payload byte is trusted;
//! * the one-byte codes of the cube's query vocabulary — Time levels
//!   ([`level_code`]), aggregate functions ([`agg_code`]) and measures
//!   ([`measure_code`]) — with inverses that attribute an unknown code
//!   to the caller's wire label.
//!
//! New wire formats should build on these helpers instead of copying
//! them.

use std::io::{self, Read, Write};

use gisolap_olap::agg::AggFn;
use gisolap_olap::time::TimeLevel;
use gisolap_stream::Measure;

use crate::codec::{read_frame, FrameRead};
use crate::{Result, StoreError};

/// Largest message a socket peer accepts: mirrors the codec's frame
/// cap, so a corrupt length prefix is rejected before allocation.
pub const MAX_MESSAGE: u32 = 1 << 30;

/// A [`StoreError::Corrupt`] attributed to the wire `label` (e.g.
/// `"repl-wire"`) rather than an on-disk file.
pub fn wire_corrupt(label: &str, detail: impl Into<String>) -> StoreError {
    StoreError::Corrupt {
        file: label.to_string(),
        detail: detail.into(),
    }
}

/// Decodes `bytes` as exactly one CRC frame and returns its payload.
///
/// `what` names the message kind in error details (e.g. `"request"`):
/// trailing bytes after the frame, an empty input and a torn frame are
/// all [`StoreError::Corrupt`] attributed to `label`.
pub fn decode_single_frame<'a>(bytes: &'a [u8], label: &str, what: &str) -> Result<&'a [u8]> {
    match read_frame(bytes) {
        FrameRead::Ok { payload, rest: [] } => Ok(payload),
        FrameRead::Ok { .. } => Err(wire_corrupt(
            label,
            format!("trailing bytes after {what} frame"),
        )),
        FrameRead::End => Err(wire_corrupt(label, format!("empty {what}"))),
        FrameRead::Torn { detail } => Err(wire_corrupt(label, format!("torn {what}: {detail}"))),
    }
}

/// The wire code of a Time-hierarchy level.
pub fn level_code(level: TimeLevel) -> u8 {
    match level {
        TimeLevel::TimeId => 0,
        TimeLevel::Minute => 1,
        TimeLevel::Hour => 2,
        TimeLevel::Day => 3,
        TimeLevel::Month => 4,
        TimeLevel::Year => 5,
        TimeLevel::TimeOfDayLevel => 6,
        TimeLevel::DayOfWeekLevel => 7,
        TimeLevel::TypeOfDayLevel => 8,
        TimeLevel::All => 9,
    }
}

/// The level behind a [`level_code`]; an unknown code is corruption of
/// the wire `label`.
pub fn level_from(code: u8, label: &str) -> Result<TimeLevel> {
    Ok(match code {
        0 => TimeLevel::TimeId,
        1 => TimeLevel::Minute,
        2 => TimeLevel::Hour,
        3 => TimeLevel::Day,
        4 => TimeLevel::Month,
        5 => TimeLevel::Year,
        6 => TimeLevel::TimeOfDayLevel,
        7 => TimeLevel::DayOfWeekLevel,
        8 => TimeLevel::TypeOfDayLevel,
        9 => TimeLevel::All,
        c => return Err(wire_corrupt(label, format!("unknown time level code {c}"))),
    })
}

/// The wire code of an aggregate function.
pub fn agg_code(f: AggFn) -> u8 {
    match f {
        AggFn::Min => 0,
        AggFn::Max => 1,
        AggFn::Count => 2,
        AggFn::Sum => 3,
        AggFn::Avg => 4,
    }
}

/// The aggregate function behind an [`agg_code`]; an unknown code is
/// corruption of the wire `label`.
pub fn agg_from(code: u8, label: &str) -> Result<AggFn> {
    Ok(match code {
        0 => AggFn::Min,
        1 => AggFn::Max,
        2 => AggFn::Count,
        3 => AggFn::Sum,
        4 => AggFn::Avg,
        c => return Err(wire_corrupt(label, format!("unknown aggregate code {c}"))),
    })
}

/// The wire code of a coordinate measure.
pub fn measure_code(m: Measure) -> u8 {
    match m {
        Measure::X => 0,
        Measure::Y => 1,
    }
}

/// The measure behind a [`measure_code`]; an unknown code is corruption
/// of the wire `label`.
pub fn measure_from(code: u8, label: &str) -> Result<Measure> {
    Ok(match code {
        0 => Measure::X,
        1 => Measure::Y,
        c => return Err(wire_corrupt(label, format!("unknown measure code {c}"))),
    })
}

/// Writes one framed message to the socket.
pub fn write_message(w: &mut impl Write, framed: &[u8]) -> io::Result<()> {
    w.write_all(framed)?;
    w.flush()
}

/// Reads one framed message off the socket and returns its CRC-checked
/// payload. `Ok(None)` is clean end-of-stream (peer closed between
/// messages); a length prefix beyond [`MAX_MESSAGE`], a short read
/// mid-frame, or a checksum mismatch is `InvalidData`.
pub fn read_message(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    match r.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_MESSAGE {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("message length {len} exceeds the {MAX_MESSAGE}-byte cap"),
        ));
    }
    let mut rest = vec![0u8; len as usize + 4];
    r.read_exact(&mut rest)?;
    let mut full = Vec::with_capacity(8 + len as usize);
    full.extend_from_slice(&len_bytes);
    full.extend_from_slice(&rest);
    match read_frame(&full) {
        FrameRead::Ok { payload, rest: [] } => Ok(Some(payload.to_vec())),
        FrameRead::Ok { .. } => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "trailing bytes inside message envelope",
        )),
        FrameRead::End => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "empty message envelope",
        )),
        FrameRead::Torn { detail } => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("torn message: {detail}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::frame;

    #[test]
    fn single_frame_strictness() {
        let framed = frame(b"payload");
        assert_eq!(
            decode_single_frame(&framed, "w", "request").unwrap(),
            b"payload"
        );

        let mut trailing = framed.clone();
        trailing.push(0);
        let err = decode_single_frame(&trailing, "w", "request").unwrap_err();
        assert!(
            err.to_string()
                .contains("trailing bytes after request frame"),
            "{err}"
        );

        let err = decode_single_frame(&[], "w", "reply").unwrap_err();
        assert!(err.to_string().contains("empty reply"), "{err}");

        let err = decode_single_frame(&framed[..framed.len() - 2], "w", "reply").unwrap_err();
        assert!(err.to_string().contains("torn reply"), "{err}");
    }

    #[test]
    fn wire_corrupt_names_the_label() {
        let err = wire_corrupt("shard-wire", "bad tag");
        match err {
            StoreError::Corrupt { file, detail } => {
                assert_eq!(file, "shard-wire");
                assert_eq!(detail, "bad tag");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn message_roundtrip_and_caps() {
        let framed = frame(b"hello");
        let got = read_message(&mut framed.as_slice()).unwrap().unwrap();
        assert_eq!(got, b"hello");
        assert!(read_message(&mut [].as_slice()).unwrap().is_none());

        let mut oversized = (MAX_MESSAGE + 1).to_le_bytes().to_vec();
        oversized.extend_from_slice(&[0; 16]);
        let err = read_message(&mut oversized.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let mut out = Vec::new();
        write_message(&mut out, &framed).unwrap();
        assert_eq!(out, framed);
    }
}
