//! Synchronization modes compared throughout the evaluation.

use std::fmt;

use cusync::OptFlags;
use cusync_sim::SimTime;

/// Which synchronization policy a cuSync run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// One semaphore per tile.
    Tile,
    /// One semaphore per row of tiles.
    Row,
    /// Strided groups (Attention QKV); falls back to Tile where a
    /// dependence has no stride.
    Strided,
    /// The Conv2D fold policy.
    Conv2DTile,
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyKind::Tile => write!(f, "TileSync"),
            PolicyKind::Row => write!(f, "RowSync"),
            PolicyKind::Strided => write!(f, "StridedTileSync"),
            PolicyKind::Conv2DTile => write!(f, "Conv2DTileSync"),
        }
    }
}

/// A synchronization strategy for a dependent-kernel workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncMode {
    /// The traditional baseline: all kernels on one stream.
    StreamSync,
    /// Stream-K work-centric decomposition of each GeMM, kernels still
    /// stream-ordered (Section V-H). GeMM-only.
    StreamK,
    /// cuSync fine-grained synchronization with the given policy and
    /// optimization flags.
    CuSync(PolicyKind, OptFlags),
}

impl SyncMode {
    /// The paper's policy configurations for LLM experiments (Section
    /// V-E): `RowSync+WRT`, `TileSync`, `TileSync+WRT` (and
    /// `StridedTileSync+WRT` for Attention).
    pub fn llm_policies() -> Vec<SyncMode> {
        vec![
            SyncMode::CuSync(PolicyKind::Row, OptFlags::WRT),
            SyncMode::CuSync(PolicyKind::Tile, OptFlags::NONE),
            SyncMode::CuSync(PolicyKind::Tile, OptFlags::WRT),
        ]
    }

    /// The attention policy set, which adds `StridedTileSync+WRT`.
    pub fn attention_policies() -> Vec<SyncMode> {
        let mut v = SyncMode::llm_policies();
        v.push(SyncMode::CuSync(PolicyKind::Strided, OptFlags::WRT));
        v
    }

    /// The paper's policy configurations for Conv2D experiments (Section
    /// V-F): `RowSync+WRT`, `Conv2DTileSync`, `Conv2DTileSync+WRT`.
    pub fn conv_policies() -> Vec<SyncMode> {
        vec![
            SyncMode::CuSync(PolicyKind::Row, OptFlags::WRT),
            SyncMode::CuSync(PolicyKind::Conv2DTile, OptFlags::NONE),
            SyncMode::CuSync(PolicyKind::Conv2DTile, OptFlags::WRT),
        ]
    }
}

impl fmt::Display for SyncMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyncMode::StreamSync => write!(f, "StreamSync"),
            SyncMode::StreamK => write!(f, "StreamK"),
            SyncMode::CuSync(policy, opts) => write!(f, "{policy}{opts}"),
        }
    }
}

/// Percentage by which `t` improves on the baseline time `base` (the
/// StreamSync run, in the paper's figures and tables): positive when `t`
/// is faster.
///
/// # Examples
///
/// ```
/// use cusync_models::improvement_pct;
/// use cusync_sim::SimTime;
///
/// let gain = improvement_pct(SimTime::from_micros(400.0), SimTime::from_micros(300.0));
/// assert_eq!(gain, 25.0);
/// ```
pub fn improvement_pct(base: SimTime, t: SimTime) -> f64 {
    100.0 * (1.0 - t.as_picos() as f64 / base.as_picos() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_names_match_paper_legends() {
        assert_eq!(SyncMode::StreamSync.to_string(), "StreamSync");
        assert_eq!(SyncMode::StreamK.to_string(), "StreamK");
        assert_eq!(
            SyncMode::CuSync(PolicyKind::Row, OptFlags::WRT).to_string(),
            "RowSync+WRT"
        );
        assert_eq!(
            SyncMode::CuSync(PolicyKind::Tile, OptFlags::NONE).to_string(),
            "TileSync"
        );
        assert_eq!(
            SyncMode::CuSync(PolicyKind::Strided, OptFlags::WRT).to_string(),
            "StridedTileSync+WRT"
        );
    }

    #[test]
    fn policy_sets_match_evaluation_section() {
        assert_eq!(SyncMode::llm_policies().len(), 3);
        assert_eq!(SyncMode::attention_policies().len(), 4);
        assert_eq!(SyncMode::conv_policies().len(), 3);
    }
}
