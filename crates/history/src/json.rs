//! On-disk JSON format for histories.
//!
//! The format is a direct serialisation of [`RawHistory`]:
//!
//! ```json
//! {
//!   "ops": [
//!     {"kind": "write", "value": 1, "start": 0, "finish": 10},
//!     {"kind": "read",  "value": 1, "start": 12, "finish": 20, "weight": 1}
//!   ]
//! }
//! ```
//!
//! `weight` defaults to 1 when omitted. Times and values are plain integers.

use crate::RawHistory;
use std::error::Error;
use std::fmt;
use std::fs;
use std::io::{Read, Write};
use std::path::Path;

/// Error reading or writing a history file.
#[derive(Debug)]
pub enum JsonError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed JSON or schema mismatch.
    Parse(serde_json::Error),
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Io(e) => write!(f, "i/o error: {e}"),
            JsonError::Parse(e) => write!(f, "invalid history json: {e}"),
        }
    }
}

impl Error for JsonError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            JsonError::Io(e) => Some(e),
            JsonError::Parse(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for JsonError {
    fn from(e: std::io::Error) -> Self {
        JsonError::Io(e)
    }
}

impl From<serde_json::Error> for JsonError {
    fn from(e: serde_json::Error) -> Self {
        JsonError::Parse(e)
    }
}

/// Serialises a history to a pretty-printed JSON string.
pub fn to_json_string(history: &RawHistory) -> String {
    serde_json::to_string_pretty(history).expect("RawHistory serialisation is infallible")
}

/// Parses a history from a JSON string.
///
/// # Errors
///
/// Returns [`JsonError::Parse`] on malformed input.
///
/// # Examples
///
/// ```
/// use kav_history::json;
///
/// let raw = json::from_json_str(
///     r#"{"ops":[{"kind":"write","value":1,"start":0,"finish":10}]}"#,
/// )?;
/// assert_eq!(raw.len(), 1);
/// # Ok::<(), kav_history::json::JsonError>(())
/// ```
pub fn from_json_str(json: &str) -> Result<RawHistory, JsonError> {
    Ok(serde_json::from_str(json)?)
}

/// Reads a history from a JSON file.
///
/// # Errors
///
/// Returns [`JsonError`] on I/O failure or malformed content.
pub fn read_history(path: impl AsRef<Path>) -> Result<RawHistory, JsonError> {
    let mut buf = String::new();
    fs::File::open(path)?.read_to_string(&mut buf)?;
    from_json_str(&buf)
}

/// Writes a history to a JSON file (pretty-printed).
///
/// # Errors
///
/// Returns [`JsonError::Io`] on I/O failure.
pub fn write_history(path: impl AsRef<Path>, history: &RawHistory) -> Result<(), JsonError> {
    let mut file = fs::File::create(path)?;
    file.write_all(to_json_string(history).as_bytes())?;
    file.write_all(b"\n")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Time, Value};

    fn sample() -> RawHistory {
        let mut raw = RawHistory::new();
        raw.write(Value(1), Time(0), Time(10)).read(Value(1), Time(12), Time(20));
        raw
    }

    #[test]
    fn string_roundtrip() {
        let raw = sample();
        let js = to_json_string(&raw);
        let back = from_json_str(&js).unwrap();
        assert_eq!(raw, back);
    }

    #[test]
    fn pretty_bytes_match_the_golden_capture() {
        // Captured from the tree serializer: history files must not drift
        // by a byte, and the compact reader must read them back.
        let raw = RawHistory::from_ops([
            crate::Operation::write(Value(1), Time(0), Time(10)),
            crate::Operation::read(Value(1), Time(12), Time(20)).with_client(3),
            crate::Operation::weighted_write(Value(2), Time(5), Time(7), crate::Weight(4)),
        ]);
        let golden = r#"{
  "ops": [
    {
      "kind": "write",
      "value": 1,
      "start": 0,
      "finish": 10,
      "weight": 1
    },
    {
      "kind": "read",
      "value": 1,
      "start": 12,
      "finish": 20,
      "weight": 1,
      "client": 3
    },
    {
      "kind": "write",
      "value": 2,
      "start": 5,
      "finish": 7,
      "weight": 4
    }
  ]
}"#;
        assert_eq!(to_json_string(&raw), golden);
        assert_eq!(from_json_str(golden).unwrap(), raw);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("kav_history_json_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("h.json");
        let raw = sample();
        write_history(&path, &raw).unwrap();
        let back = read_history(&path).unwrap();
        assert_eq!(raw, back);
        fs::remove_file(path).ok();
    }

    #[test]
    fn parse_errors_are_reported() {
        let err = from_json_str("{").unwrap_err();
        assert!(matches!(err, JsonError::Parse(_)));
        assert!(err.to_string().contains("invalid history json"));
        assert!(err.source().is_some());
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = read_history("/nonexistent/definitely/not/here.json").unwrap_err();
        assert!(matches!(err, JsonError::Io(_)));
    }
}
