//! Tuple pins: the `Hash` and `{:?}` of every ground-truth tuple the
//! generators publish, held to digests taken while a tuple still stored
//! its field names as `String`s. A tuple's names are interned symbols now,
//! and symbol ids follow interning order, which differs between processes:
//! hashing or printing an id instead of the name's string would move
//! these numbers from one run to the next — and with them every relation
//! fingerprint, dedup key and log line built on a tuple. `approx_bytes` is
//! pinned beside them: byte-budgeted page caches evict by it, so it keeps
//! counting a name's bytes although no tuple owns them any more.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use websim::site::Site;
use websim::sitegen::{BibConfig, Bibliography, University, UniversityConfig};

/// (`Hash` digest, `{:?}` digest, `{:?}` bytes, `approx_bytes`, tuples)
/// over every ground-truth tuple of the site, in scheme-declaration then
/// URL order. `DefaultHasher::new()` is keyed with zeros: stable across runs.
fn tuple_pin(site: &Site) -> (u64, u64, usize, usize, usize) {
    let (mut hashed, mut printed) = (DefaultHasher::new(), DefaultHasher::new());
    let (mut bytes, mut approx, mut tuples) = (0, 0, 0);
    for ps in site.scheme.schemes() {
        for (_, tuple) in site.pages(&ps.name) {
            tuple.hash(&mut hashed);
            let debug = format!("{tuple:?}");
            printed.write(debug.as_bytes());
            bytes += debug.len();
            approx += tuple.approx_bytes();
            tuples += 1;
        }
    }
    (hashed.finish(), printed.finish(), bytes, approx, tuples)
}

#[test]
fn ground_truth_tuples_hash_and_print_by_name() {
    let default = University::generate(UniversityConfig::default()).unwrap();
    let medium = University::generate(UniversityConfig {
        departments: 10,
        professors: 200,
        courses: 1_000,
        ..UniversityConfig::default()
    })
    .unwrap();
    let bib = Bibliography::generate(BibConfig::default()).unwrap();
    assert_eq!(
        [
            tuple_pin(&default.site),
            tuple_pin(&medium.site),
            tuple_pin(&bib.site)
        ],
        [
            (
                0x199f_0b1f_0987_5bdc,
                0xd7f6_996f_29a0_fdea,
                33_823,
                40_598,
                80
            ),
            (
                0xb9ff_ed08_f572_7842,
                0x2c20_b17b_fe20_1090,
                569_207,
                681_791,
                1_217
            ),
            (
                0xd8ed_c474_6d3e_0743,
                0x4bb7_6597_d58d_bdfb,
                1_010_753,
                1_156_136,
                448
            )
        ],
        "(Hash digest, Debug digest, Debug bytes, approx_bytes, tuples) of University default, \
         University 10/200/1000, Bibliography default"
    );
}
