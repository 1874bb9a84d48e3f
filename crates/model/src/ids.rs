//! Strongly-typed identifiers for data items and cache servers.
//!
//! The paper indexes items `d_1..d_k` and servers `s_1..s_m` from one; we
//! index from zero internally and render one-based in [`std::fmt::Display`]
//! so that diagrams and experiment output match the paper's notation.

use crate::json::{FromJson, Json, JsonError, JsonWriter, ToJson};

/// Identifier of a data item (`d_p` in the paper), zero-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ItemId(pub u32);

/// Identifier of a cache server (`s_j` in the paper), zero-based.
///
/// By convention — matching Section III-A of the paper — every data item
/// initially resides on server `s_1`, i.e. `ServerId::ORIGIN`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ServerId(pub u32);

impl ItemId {
    /// Zero-based index as a `usize`, for direct slice indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl ServerId {
    /// The server on which every item initially resides (`s_1`).
    pub const ORIGIN: ServerId = ServerId(0);

    /// Zero-based index as a `usize`, for direct slice indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

// Ids serialize transparently as their raw number, matching the on-disk
// format the previous `#[serde(transparent)]` derives produced.
impl ToJson for ItemId {
    fn to_json(&self) -> Json {
        Json::Num(f64::from(self.0))
    }

    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.num(f64::from(self.0));
    }
}

impl FromJson for ItemId {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        u32::from_json(v).map(ItemId)
    }
}

impl ToJson for ServerId {
    fn to_json(&self) -> Json {
        Json::Num(f64::from(self.0))
    }
}

impl FromJson for ServerId {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        u32::from_json(v).map(ServerId)
    }
}

impl From<u32> for ItemId {
    fn from(v: u32) -> Self {
        ItemId(v)
    }
}

impl From<u32> for ServerId {
    fn from(v: u32) -> Self {
        ServerId(v)
    }
}

impl std::fmt::Display for ItemId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // One-based, matching the paper's d_1..d_k.
        write!(f, "d{}", self.0 + 1)
    }
}

impl std::fmt::Display for ServerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // One-based, matching the paper's s_1..s_m.
        write!(f, "s{}", self.0 + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_one_based() {
        assert_eq!(ItemId(0).to_string(), "d1");
        assert_eq!(ItemId(9).to_string(), "d10");
        assert_eq!(ServerId(0).to_string(), "s1");
        assert_eq!(ServerId::ORIGIN.to_string(), "s1");
        assert_eq!(ServerId(49).to_string(), "s50");
    }

    #[test]
    fn index_round_trips() {
        assert_eq!(ItemId(7).index(), 7);
        assert_eq!(ServerId(3).index(), 3);
        assert_eq!(ItemId::from(5), ItemId(5));
        assert_eq!(ServerId::from(5), ServerId(5));
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(ItemId(1) < ItemId(2));
        assert!(ServerId(0) < ServerId(10));
    }

    #[test]
    fn json_is_transparent() {
        use crate::json::{parse, FromJson, ToJson};
        let j = ItemId(4).to_json().to_string();
        assert_eq!(j, "4");
        let back = ItemId::from_json(&parse(&j).unwrap()).unwrap();
        assert_eq!(back, ItemId(4));
        assert_eq!(ServerId(7).to_json().to_string(), "7");
    }
}
