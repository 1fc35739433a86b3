//! The exact-store model: an arbitrary sequence of puts, removes and
//! gets over 256 addresses, and a hash map that says what each get must
//! answer. Shared by dp-sig's `store_model` and dp-bench's comparator
//! tests (which include this file by path), so both hold their stores to
//! one model.

use dp_sig::{AccessStore, SigEntry};
use dp_types::loc::loc;
use proptest::prelude::*;
use std::collections::HashMap;

/// One operation on the store under test.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    Put { slot: u8, line: u16 },
    Remove { slot: u8 },
    Get { slot: u8 },
}

/// Up to `max` operations, puts most often.
pub fn ops(max: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            4 => (any::<u8>(), 1u16..1000).prop_map(|(slot, line)| Op::Put { slot, line }),
            1 => any::<u8>().prop_map(|slot| Op::Remove { slot }),
            3 => any::<u8>().prop_map(|slot| Op::Get { slot }),
        ],
        1..max,
    )
}

/// The address an operation's `slot` names.
pub fn addr(slot: u8) -> u64 {
    0x10_0000 + slot as u64 * 8
}

/// Runs `ops` on `store`, failing at the first get the model answers
/// otherwise, or when the occupancy differs at the end.
pub fn check_exact<S: AccessStore>(mut store: S, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut model: HashMap<u64, u32> = HashMap::new();
    let mut ts = 0u64;
    for &op in ops {
        match op {
            Op::Put { slot, line } => {
                ts += 1;
                store.put(addr(slot), SigEntry::new(loc(1, line as u32), 0, ts));
                model.insert(addr(slot), line as u32);
            }
            Op::Remove { slot } => {
                store.remove(addr(slot));
                model.remove(&addr(slot));
            }
            Op::Get { slot } => {
                let got = store.get(addr(slot)).map(|e| e.loc.line);
                prop_assert_eq!(got, model.get(&addr(slot)).copied());
            }
        }
    }
    prop_assert_eq!(store.occupied(), model.len());
    Ok(())
}
