//! Offline stand-in for `serde_json`. `otm-trace`'s report module names
//! `to_string_pretty`, `from_str` and `Value`; the benchmark never reaches
//! them, so they report an error instead of pretending to serialize.

use std::fmt;

/// The only error this stand-in produces.
#[derive(Debug)]
pub struct Error;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("serde_json stand-in: serialization is not available in the benchmark build")
    }
}

impl std::error::Error for Error {}

/// Placeholder for `serde_json::Value`.
#[derive(Debug, Clone, PartialEq)]
pub struct Value;

pub fn to_string_pretty<T: ?Sized + serde::Serialize>(_value: &T) -> Result<String, Error> {
    Err(Error)
}

pub fn to_string<T: ?Sized + serde::Serialize>(_value: &T) -> Result<String, Error> {
    Err(Error)
}

pub fn from_str<T>(_s: &str) -> Result<T, Error> {
    Err(Error)
}
