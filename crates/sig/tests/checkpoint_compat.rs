//! Checkpoints written before the signature was stored region by region
//! still load, and re-save to the same bytes.
//!
//! `data/sig_2pct.bin` and `data/sig_700pct.bin` are the `save_state`
//! bytes the flat-array signature (the commit before the regions) wrote
//! for [`stream`] at 2 % and at 700 % load: the first leaves every region
//! sparse, the second takes a full region and a short last one from
//! vacant through sparse to dense.

use dp_sig::{AccessStore, ExtendedSlot, SigEntry, Signature};
use dp_types::loc::loc;
use dp_types::ByteWriter;

/// A fixed pseudo-random run of `accesses` puts (a quarter of them to an
/// address put before) with a remove after every eleventh.
fn stream(sig: &mut Signature<ExtendedSlot>, accesses: u64) {
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    let mut last = 0;
    for i in 0..accesses {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let addr = 0x7f00_0000_0000 + (x % (accesses * 4)) * 8;
        let line = 1 + ((x >> 40) % 5000) as u32;
        sig.put(addr, SigEntry::new(loc(1 + (i % 3) as u8, line), (i % 7) as u16, i + 1));
        if i % 11 == 10 {
            sig.remove(last);
        }
        last = addr;
    }
}

fn save(sig: &Signature<ExtendedSlot>) -> Vec<u8> {
    let mut out = ByteWriter::new();
    assert!(sig.save_state(&mut out));
    out.into_bytes()
}

fn check(nslots: usize, accesses: u64, parent: &[u8]) {
    let mut sig = Signature::new(nslots);
    stream(&mut sig, accesses);
    assert!(save(&sig) == parent, "the same stream writes the parent's bytes");

    let mut loaded = Signature::new(nslots);
    loaded.restore_state(parent).expect("a parent-written checkpoint loads");
    assert_eq!((loaded.occupied(), loaded.evictions()), (sig.occupied(), sig.evictions()));
    assert!(save(&loaded) == parent, "and re-saves byte for byte");

    // The rejections are what they were.
    let mut fresh = Signature::<ExtendedSlot>::new(nslots);
    assert!(fresh.restore_state(&parent[..parent.len() - 1]).is_err(), "truncated");
    let mut trailing = parent.to_vec();
    trailing.push(0);
    assert!(fresh.restore_state(&trailing).is_err(), "trailing byte");
    let mut out_of_range = parent.to_vec();
    out_of_range[24..32].copy_from_slice(&(nslots as u64).to_le_bytes());
    assert!(fresh.restore_state(&out_of_range).is_err(), "slot index past the end");
    assert!(Signature::<ExtendedSlot>::new(nslots + 1).restore_state(parent).is_err());
}

#[test]
fn parent_checkpoint_at_2_percent_load_loads_and_resaves() {
    let parent = include_bytes!("data/sig_2pct.bin");
    check(20_000, 420, parent);
    let occupied = u64::from_le_bytes(parent[16..24].try_into().unwrap());
    assert!((300..=420).contains(&occupied), "{occupied} of 20 000 slots");
}

#[test]
fn parent_checkpoint_at_700_percent_load_loads_and_resaves() {
    let parent = include_bytes!("data/sig_700pct.bin");
    check(4_296, 30_072, parent);
    let occupied = u64::from_le_bytes(parent[16..24].try_into().unwrap());
    assert!(occupied > 3_800, "{occupied} of 4 296 slots");
}
