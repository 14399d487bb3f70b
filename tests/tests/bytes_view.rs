//! The `bytes` shim's `Bytes` as a view of a shared buffer, checked against
//! a `Vec<u8>` oracle: slices of slices read the oracle's bytes; equality,
//! order and hash are the content's, whether a value is a view into a wider
//! buffer or a copy; and `patch` on a slice edits a private copy of its own
//! range, leaving sibling slices and the buffer they share as they were,
//! while the sole owner of a whole buffer patches it in place (that it makes
//! no heap request doing so is counted in `nf_hot_path_allocs.rs`).

use bytes::Bytes;
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

fn hash_of(value: &impl Hash) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// A range within `len` drawn from two random numbers.
fn range_within(len: usize, (a, b): (u16, u16)) -> std::ops::Range<usize> {
    let start = usize::from(a) % (len + 1);
    start..start + usize::from(b) % (len - start + 1)
}

/// `bytes` as a view into the middle of a wider buffer.
fn embedded(bytes: &[u8], pad: usize) -> Bytes {
    let mut wide = vec![0xAA; pad];
    wide.extend_from_slice(bytes);
    wide.extend(std::iter::repeat_n(0x55, pad));
    Bytes::from(wide).slice(pad..pad + bytes.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn slices_of_slices_read_as_the_oracle(
        buffer in vec(any::<u8>(), 0..96),
        cuts in vec((any::<u16>(), any::<u16>()), 1..6),
    ) {
        let mut view = Bytes::from(buffer.clone());
        let mut oracle = buffer;
        for cut in cuts {
            let range = range_within(oracle.len(), cut);
            // Every range form the real crate accepts.
            let forms = [
                view.slice(range.start..).slice(..range.len()),
                view.slice(..range.end).slice(range.start..),
            ];
            if !range.is_empty() {
                let inclusive = view.slice(range.start..=range.end - 1);
                prop_assert_eq!(&inclusive[..], &oracle[range.clone()]);
            }
            view = view.slice(range.clone());
            oracle = oracle[range].to_vec();
            for form in forms {
                prop_assert_eq!(&form[..], &oracle[..]);
            }
            prop_assert_eq!(&view[..], &oracle[..]);
            prop_assert_eq!(view.len(), oracle.len());
            prop_assert_eq!(view.is_empty(), oracle.is_empty());
            prop_assert_eq!(view.to_vec(), oracle.clone());
        }
        prop_assert_eq!(&view.slice(..)[..], &oracle[..]);
    }

    #[test]
    fn equality_order_and_hash_are_the_contents(
        // A small alphabet, so that equal contents come up often.
        x in vec(0u8..3, 0..6),
        y in vec(0u8..3, 0..6),
        pad in 0usize..9,
    ) {
        let views = [embedded(&x, pad), Bytes::from(x.clone())];
        for view in &views {
            let other = embedded(&y, 8 - pad);
            prop_assert_eq!(view == &other, x == y);
            prop_assert_eq!(view.cmp(&other), x.cmp(&y));
            prop_assert_eq!(view.partial_cmp(&other), x.partial_cmp(&y));
            prop_assert_eq!(hash_of(view), hash_of(&Bytes::copy_from_slice(&x)));
            if x == y {
                prop_assert_eq!(hash_of(view), hash_of(&other));
            }
        }
        prop_assert_eq!(&views[0], &views[1]);
        prop_assert_eq!(format!("{:?}", views[0]), format!("{:?}", views[1]));
    }

    #[test]
    fn a_patched_slice_leaves_its_siblings_and_the_buffer_untouched(
        buffer in vec(any::<u8>(), 1..96),
        mine in (any::<u16>(), any::<u16>()),
        sibling in (any::<u16>(), any::<u16>()),
        xor in 1u8..=255,
    ) {
        let block = Bytes::from(buffer.clone());
        let (mine, sibling) = (range_within(buffer.len(), mine), range_within(buffer.len(), sibling));
        let mut patched = block.slice(mine.clone());
        let untouched = block.slice(sibling.clone());
        patched.patch(|bytes| bytes.iter_mut().for_each(|byte| *byte ^= xor));
        let expected: Vec<u8> = buffer[mine].iter().map(|byte| byte ^ xor).collect();
        prop_assert_eq!(&patched[..], &expected[..]);
        prop_assert_eq!(&untouched[..], &buffer[sibling]);
        prop_assert_eq!(&block[..], &buffer[..]);
    }

    #[test]
    fn the_sole_owner_of_a_whole_buffer_patches_in_place(
        buffer in vec(any::<u8>(), 1..96),
        at in any::<u16>(),
    ) {
        let at = usize::from(at) % buffer.len();
        let mut whole = Bytes::from(buffer.clone());
        let before = whole.as_ptr();
        whole.patch(|bytes| bytes[at] ^= 0xff);
        prop_assert_eq!(whole.as_ptr(), before);
        prop_assert_eq!(whole[at], buffer[at] ^ 0xff);
        // A whole-buffer view that is not the sole owner copies instead.
        let shared = whole.clone();
        whole.patch(|bytes| bytes[at] ^= 0xff);
        prop_assert!(whole.as_ptr() != shared.as_ptr());
        prop_assert_eq!(&whole[..], &buffer[..]);
        prop_assert_eq!(shared[at], buffer[at] ^ 0xff);
    }
}
