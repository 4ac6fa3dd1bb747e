//! Trace recording and replay.
//!
//! Synthetic generators are convenient, but a simulator suite also needs a
//! way to capture a workload once and re-run it exactly — for regression
//! pinning, for sharing a problematic access pattern, or for feeding
//! externally produced traces into the system. [`RecordedTrace`] holds a
//! finite access sequence, serialises to a compact binary format, and
//! replays as an infinite [`AccessStream`] by looping.
//!
//! ## Format
//!
//! Little-endian binary: the 8-byte magic `ASCCTRC1`, a `u64` access count,
//! then per access a `u64` byte address, a `u8` kind (0 load / 1 store) and
//! a `u16` stream id.

use crate::access::{Access, AccessStream};
use cmp_cache::{AccessKind, Addr};
use std::fmt;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 8] = b"ASCCTRC1";

/// Records reserved up front while reading a trace (~64 kB): the header's
/// count is untrusted, so the buffer grows as records actually arrive.
const READ_RESERVE: u64 = 1 << 12;

/// Error while decoding a recorded trace.
#[derive(Debug)]
pub enum TraceError {
    /// The stream did not start with the `ASCCTRC1` magic.
    BadMagic,
    /// The payload ended before the declared access count.
    Truncated,
    /// An access kind byte was neither 0 nor 1.
    BadKind(u8),
    /// The trace declares zero accesses (it could not replay).
    Empty,
    /// Underlying I/O failure.
    Io(io::Error),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "not an ASCC trace (bad magic)"),
            TraceError::Truncated => write!(f, "trace payload shorter than its header declares"),
            TraceError::BadKind(k) => write!(f, "invalid access kind byte {k}"),
            TraceError::Empty => write!(f, "trace contains no accesses"),
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// A finite recorded access sequence that replays in a loop.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RecordedTrace {
    accesses: Vec<Access>,
}

impl RecordedTrace {
    /// Captures the next `n` accesses of `stream`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` (an empty trace cannot replay).
    pub fn record<S: AccessStream + ?Sized>(stream: &mut S, n: usize) -> Self {
        assert!(n > 0, "cannot record an empty trace");
        RecordedTrace {
            accesses: (0..n).map(|_| stream.next_access()).collect(),
        }
    }

    /// Builds a trace from explicit accesses.
    ///
    /// # Panics
    ///
    /// Panics if `accesses` is empty.
    pub fn from_accesses(accesses: Vec<Access>) -> Self {
        assert!(!accesses.is_empty(), "cannot replay an empty trace");
        RecordedTrace { accesses }
    }

    /// Number of recorded accesses.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// Always `false` (empty traces are rejected at construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The recorded accesses.
    pub fn accesses(&self) -> &[Access] {
        &self.accesses
    }

    /// Serialises the trace.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from `w`.
    pub fn write_to<W: Write>(&self, mut w: W) -> Result<(), TraceError> {
        w.write_all(MAGIC)?;
        w.write_all(&(self.accesses.len() as u64).to_le_bytes())?;
        for a in &self.accesses {
            w.write_all(&a.addr.raw().to_le_bytes())?;
            w.write_all(&[u8::from(a.kind == AccessKind::Store)])?;
            w.write_all(&a.stream.to_le_bytes())?;
        }
        Ok(())
    }

    /// Deserialises a trace.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] on bad magic, truncation, invalid kinds, an
    /// empty payload, or I/O failure.
    pub fn read_from<R: Read>(mut r: R) -> Result<Self, TraceError> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic).map_err(eof_as_truncated)?;
        if &magic != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let mut countb = [0u8; 8];
        r.read_exact(&mut countb).map_err(eof_as_truncated)?;
        let count = u64::from_le_bytes(countb);
        if count == 0 {
            return Err(TraceError::Empty);
        }
        let mut accesses = Vec::with_capacity(count.min(READ_RESERVE) as usize);
        for _ in 0..count {
            let mut rec = [0u8; 11];
            r.read_exact(&mut rec).map_err(eof_as_truncated)?;
            let addr = u64::from_le_bytes(rec[0..8].try_into().expect("8 bytes"));
            let kind = match rec[8] {
                0 => AccessKind::Load,
                1 => AccessKind::Store,
                k => return Err(TraceError::BadKind(k)),
            };
            let stream = u16::from_le_bytes(rec[9..11].try_into().expect("2 bytes"));
            accesses.push(Access {
                addr: Addr::new(addr),
                kind,
                stream,
            });
        }
        Ok(RecordedTrace { accesses })
    }

    /// Saves to a file.
    ///
    /// # Errors
    ///
    /// Returns any I/O error.
    pub fn save(&self, path: &std::path::Path) -> Result<(), TraceError> {
        self.write_to(io::BufWriter::new(std::fs::File::create(path)?))
    }

    /// Loads from a file.
    ///
    /// # Errors
    ///
    /// See [`RecordedTrace::read_from`].
    pub fn load(path: &std::path::Path) -> Result<Self, TraceError> {
        Self::read_from(io::BufReader::new(std::fs::File::open(path)?))
    }

    /// Converts into an infinite, looping replay stream.
    pub fn into_stream(self) -> ReplayStream {
        ReplayStream {
            trace: self,
            pos: 0,
        }
    }
}

fn eof_as_truncated(e: io::Error) -> TraceError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        TraceError::Truncated
    } else {
        TraceError::Io(e)
    }
}

/// Infinite replay of a [`RecordedTrace`], wrapping at the end.
#[derive(Clone, Debug)]
pub struct ReplayStream {
    trace: RecordedTrace,
    pos: usize,
}

impl AccessStream for ReplayStream {
    fn next_access(&mut self) -> Access {
        let a = self.trace.accesses[self.pos];
        self.pos = (self.pos + 1) % self.trace.len();
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::CyclicStream;

    fn sample() -> RecordedTrace {
        let mut s = CyclicStream::words(0x1000, 64, 3);
        RecordedTrace::record(&mut s, 10)
    }

    #[test]
    fn record_captures_the_stream_prefix() {
        let t = sample();
        assert_eq!(t.len(), 10);
        assert_eq!(t.accesses()[0].addr.raw(), 0x1000);
        assert_eq!(t.accesses()[1].addr.raw(), 0x1004);
        assert_eq!(t.accesses()[0].stream, 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn round_trip_bytes() {
        let t = sample();
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let back = RecordedTrace::read_from(&buf[..]).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn round_trip_file() {
        let t = sample();
        let dir = std::env::temp_dir().join(format!("ascc-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trc");
        t.save(&path).unwrap();
        let back = RecordedTrace::load(&path).unwrap();
        assert_eq!(t, back);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_loops() {
        let t = sample();
        let first: Vec<_> = t.accesses().to_vec();
        let mut s = t.into_stream();
        for lap in 0..3 {
            for a in &first {
                let _ = lap;
                assert_eq!(s.next_access(), *a);
            }
        }
    }

    #[test]
    fn stores_survive_the_round_trip() {
        let accesses = vec![
            Access::load(Addr::new(32), 0),
            Access::store(Addr::new(64), 1),
        ];
        let t = RecordedTrace::from_accesses(accesses.clone());
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let back = RecordedTrace::read_from(&buf[..]).unwrap();
        assert_eq!(back.accesses(), &accesses[..]);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = RecordedTrace::read_from(&b"NOTATRCE\0\0\0\0\0\0\0\0"[..]).unwrap_err();
        assert!(matches!(err, TraceError::BadMagic), "{err}");
    }

    #[test]
    fn truncation_rejected() {
        let t = sample();
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        let err = RecordedTrace::read_from(&buf[..]).unwrap_err();
        assert!(matches!(err, TraceError::Truncated), "{err}");
    }

    #[test]
    fn bad_kind_rejected() {
        let t = RecordedTrace::from_accesses(vec![Access::load(Addr::new(0), 0)]);
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        buf[16 + 8] = 7; // corrupt the kind byte
        let err = RecordedTrace::read_from(&buf[..]).unwrap_err();
        assert!(matches!(err, TraceError::BadKind(7)), "{err}");
    }

    #[test]
    fn empty_header_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&0u64.to_le_bytes());
        let err = RecordedTrace::read_from(&buf[..]).unwrap_err();
        assert!(matches!(err, TraceError::Empty), "{err}");
    }

    #[test]
    fn errors_display() {
        assert!(TraceError::BadMagic.to_string().contains("magic"));
        assert!(TraceError::Truncated.to_string().contains("shorter"));
        assert!(TraceError::BadKind(9).to_string().contains('9'));
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn recording_zero_panics() {
        let mut s = CyclicStream::words(0, 64, 0);
        let _ = RecordedTrace::record(&mut s, 0);
    }
}
