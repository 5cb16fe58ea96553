//! Error types for tensor operations.

use std::error::Error;
use std::fmt;

/// Error produced by shape-sensitive tensor operations.
///
/// All fallible public functions in this crate return
/// `Result<_, TensorError>`; the panicking variants (used internally and in
/// operator overloads) document their panic conditions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two shapes that must match (or broadcast together) do not.
    ShapeMismatch {
        /// Left-hand shape of the failing operation.
        lhs: Vec<usize>,
        /// Right-hand shape of the failing operation.
        rhs: Vec<usize>,
        /// Operation that failed, e.g. `"matmul"`.
        op: &'static str,
    },
    /// An axis argument is out of range for the given rank.
    InvalidAxis {
        /// Requested axis.
        axis: usize,
        /// Rank of the array the axis was applied to.
        rank: usize,
    },
    /// The number of elements implied by a shape does not match the data
    /// length supplied.
    LengthMismatch {
        /// Number of elements implied by the shape.
        expected: usize,
        /// Number of elements actually provided.
        actual: usize,
    },
    /// An operation that requires a specific rank received something else.
    RankMismatch {
        /// Required rank.
        expected: usize,
        /// Provided rank.
        actual: usize,
        /// Operation that failed.
        op: &'static str,
    },
    /// Miscellaneous invalid-argument error with a human-readable message.
    InvalidArgument(String),
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { lhs, rhs, op } => {
                write!(f, "shape mismatch in {op}: {lhs:?} vs {rhs:?}")
            }
            TensorError::InvalidAxis { axis, rank } => {
                write!(f, "axis {axis} is out of range for rank {rank}")
            }
            TensorError::LengthMismatch { expected, actual } => {
                write!(f, "shape implies {expected} elements but {actual} were provided")
            }
            TensorError::RankMismatch { expected, actual, op } => {
                write!(f, "{op} requires rank {expected} but received rank {actual}")
            }
            TensorError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl Error for TensorError {}

/// A tensor error met while reading or writing data (a sample that does
/// not fit its shape, a model that cannot take a stored batch) is
/// `InvalidData`.
impl From<TensorError> for std::io::Error {
    fn from(e: TensorError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, TensorError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_shape_mismatch() {
        let e = TensorError::ShapeMismatch { lhs: vec![2, 3], rhs: vec![4], op: "add" };
        assert_eq!(e.to_string(), "shape mismatch in add: [2, 3] vs [4]");
    }

    #[test]
    fn display_invalid_axis() {
        let e = TensorError::InvalidAxis { axis: 3, rank: 2 };
        assert_eq!(e.to_string(), "axis 3 is out of range for rank 2");
    }

    #[test]
    fn display_length_mismatch() {
        let e = TensorError::LengthMismatch { expected: 6, actual: 5 };
        assert!(e.to_string().contains("6"));
        assert!(e.to_string().contains("5"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }
}
