//! Typed tile-library errors.
//!
//! The service maps these onto wire kinds: [`TilelibError::Infeasible`]
//! becomes the library-infeasible response,
//! [`TilelibError::DeadlineExceeded`] the deadline-exceeded response, and
//! every other variant the store-error response (see `mosaic-service`'s protocol registry — the
//! wire words themselves are deliberately not spelled here).

use mosaic_grid::DeadlineExceeded;
use std::fmt;

/// Everything that can go wrong in the tile-library subsystem.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TilelibError {
    /// The on-disk store is missing, unreadable, or corrupt.
    Store(String),
    /// An ingest source could not be read or decoded.
    Ingest(String),
    /// The library holds fewer tiles than the target has cells, so no
    /// injective assignment exists.
    Infeasible {
        /// Target cells to cover.
        cells: usize,
        /// Tiles available in the library.
        tiles: usize,
    },
    /// Parameters are inconsistent (zero grid, tile-size mismatch, …).
    Config(String),
    /// The job's deadline expired before its last stage.
    DeadlineExceeded,
}

impl TilelibError {
    /// True for the variants the service reports as a store error (all
    /// but [`TilelibError::Infeasible`] and
    /// [`TilelibError::DeadlineExceeded`], which have wire kinds of
    /// their own).
    pub fn is_store(&self) -> bool {
        !matches!(
            self,
            TilelibError::Infeasible { .. } | TilelibError::DeadlineExceeded
        )
    }
}

impl From<DeadlineExceeded> for TilelibError {
    fn from(_: DeadlineExceeded) -> Self {
        TilelibError::DeadlineExceeded
    }
}

impl fmt::Display for TilelibError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TilelibError::Store(msg) => write!(f, "tile store: {msg}"),
            TilelibError::Ingest(msg) => write!(f, "ingest: {msg}"),
            TilelibError::Infeasible { cells, tiles } => write!(
                f,
                "library of {tiles} tiles cannot cover {cells} cells injectively"
            ),
            TilelibError::Config(msg) => write!(f, "config: {msg}"),
            TilelibError::DeadlineExceeded => write!(f, "{DeadlineExceeded}"),
        }
    }
}

impl std::error::Error for TilelibError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_store_classification() {
        let e = TilelibError::Store("bad meta".into());
        assert!(e.is_store());
        assert!(e.to_string().contains("bad meta"));
        let e = TilelibError::Infeasible {
            cells: 16,
            tiles: 9,
        };
        assert!(!e.is_store());
        assert!(e.to_string().contains("16"));
        assert!(e.to_string().contains('9'));
        assert!(TilelibError::Ingest("x".into()).is_store());
        assert!(TilelibError::Config("y".into()).is_store());
        assert!(!TilelibError::DeadlineExceeded.is_store());
    }
}
