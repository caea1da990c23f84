//! Property tests: `RangeCache` against a per-sector timestamp model.

use proptest::prelude::*;
use smrseek_cache::RangeCache;
use smrseek_trace::Pba;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum RangeOp {
    Insert(u64, u64),
    Covers(u64, u64),
}

fn range_ops() -> impl Strategy<Value = Vec<RangeOp>> {
    prop::collection::vec(
        prop_oneof![
            2 => (0u64..512, 1u64..48).prop_map(|(s, l)| RangeOp::Insert(s, l)),
            1 => (0u64..512, 1u64..64).prop_map(|(s, l)| RangeOp::Covers(s, l)),
        ],
        1..100,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// With an effectively unbounded budget, `covers` must answer exactly
    /// "was every sector of the range inserted before".
    #[test]
    fn range_cache_coverage_matches_model(ops in range_ops()) {
        let mut cache = RangeCache::with_capacity_sectors(1 << 20);
        let mut model: HashMap<u64, ()> = HashMap::new();
        for op in &ops {
            match *op {
                RangeOp::Insert(s, l) => {
                    cache.insert(Pba::new(s), l);
                    for x in s..s + l {
                        model.insert(x, ());
                    }
                }
                RangeOp::Covers(s, l) => {
                    let want = (s..s + l).all(|x| model.contains_key(&x));
                    prop_assert_eq!(
                        cache.covers(Pba::new(s), l),
                        want,
                        "covers({}, {})", s, l
                    );
                    prop_assert_eq!(cache.peek_covers(Pba::new(s), l), want);
                }
            }
            // Accounting: cached sectors equal distinct inserted sectors.
            prop_assert_eq!(cache.sectors_used(), model.len() as u64);
        }
    }

    /// Under a tight budget the cache never exceeds it (beyond the single
    /// oversized-entry allowance) and never reports uninserted sectors.
    #[test]
    fn range_cache_respects_budget(ops in range_ops(), budget in 16u64..128) {
        let mut cache = RangeCache::with_capacity_sectors(budget);
        let mut inserted: HashMap<u64, ()> = HashMap::new();
        // The cache never evicts below one entry, so a single oversized
        // insert may linger; the allowance tracks the largest insert seen.
        let mut max_insert = 0u64;
        for op in &ops {
            match *op {
                RangeOp::Insert(s, l) => {
                    cache.insert(Pba::new(s), l);
                    max_insert = max_insert.max(l);
                    for x in s..s + l {
                        inserted.insert(x, ());
                    }
                    prop_assert!(
                        cache.sectors_used() <= budget.max(max_insert),
                        "budget {} exceeded: {}",
                        budget,
                        cache.sectors_used()
                    );
                }
                RangeOp::Covers(s, l) => {
                    if cache.covers(Pba::new(s), l) {
                        // No false positives: everything covered was
                        // inserted at some point.
                        for x in s..s + l {
                            prop_assert!(inserted.contains_key(&x));
                        }
                    }
                }
            }
        }
    }
}
