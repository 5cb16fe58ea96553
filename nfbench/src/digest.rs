//! Digests of generated inputs, so a record says which bytes it measured
//! and the inputs can be pinned.

use neurfill_data::shard::fnv1a;
use neurfill_layout::Layout;
use std::borrow::Borrow;

/// FNV-1a (the repository's one checksum) over the layouts' bit-exact
/// binary encoding, as 16 hex digits: any change in the last place of any
/// window shows.
pub fn layouts<L: Borrow<Layout>>(layouts: impl IntoIterator<Item = L>) -> String {
    let mut bytes = Vec::new();
    for layout in layouts {
        neurfill_layout::io::write_layout_bits(layout.borrow(), &mut bytes)
            .expect("writing to a Vec cannot fail");
    }
    format!("{:016x}", fnv1a(&bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurfill_layout::{DesignKind, DesignSpec};

    #[test]
    fn sees_every_bit_and_the_order_of_its_layouts() {
        let a = DesignSpec::new(DesignKind::CmpTest, 8, 8, 1).generate();
        let b = DesignSpec::new(DesignKind::Fpga, 8, 8, 1).generate();
        let mut nudged = a.clone();
        let w = nudged.layer_mut(2).get_mut(7, 7);
        w.slack = f64::from_bits(w.slack.to_bits() ^ 1);
        assert_eq!(layouts([&a, &b]), layouts([a.clone(), b.clone()]));
        assert_ne!(layouts([&a, &b]), layouts([&nudged, &b]));
        assert_ne!(layouts([&a, &b]), layouts([&b, &a]));
        assert_eq!(layouts([&a]).len(), 16);
        // The empty input hashes to the FNV-1a offset basis.
        assert_eq!(layouts(Vec::<Layout>::new()), "cbf29ce484222325");
    }
}
