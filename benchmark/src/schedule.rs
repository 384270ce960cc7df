//! Seeded request schedules. The benchmark owns its generator (splitmix64)
//! so no product or shim change can shift its inputs.
//!
//! Both schedules are *stratified*: the seed decides the order of requests,
//! never how often each appears. A sampled Zipf stream over seven queries
//! that cost 11–354 pages each moves throughput by several percent from
//! seed to seed; a fixed multiset in seeded order moves it by nothing, and
//! it makes `page_accesses_per_req` an exact count.

/// splitmix64: tiny, well mixed, and ours.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias at these sizes is
    /// below 2⁻⁵⁰.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// A distinct generator per (seed, stream) pair.
pub fn stream(seed: u64, stream: u64) -> Rng {
    let mut r = Rng::new(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
    r.next_u64();
    r
}

/// How many of `cycle` slots each of `n` ranks gets under Zipf weights
/// `1/rank^s`, by largest remainder — so the counts sum to `cycle` exactly
/// and every rank appears at least once when `cycle` allows it.
pub fn zipf_counts(n: usize, cycle: usize, s: f64) -> Vec<usize> {
    let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * cycle as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..n).collect();
    by_remainder.sort_by(|&a, &b| {
        let (ra, rb) = (exact[a] - exact[a].floor(), exact[b] - exact[b].floor());
        rb.partial_cmp(&ra).expect("finite").then(a.cmp(&b))
    });
    let short = cycle - counts.iter().sum::<usize>();
    for &i in by_remainder.iter().take(short) {
        counts[i] += 1;
    }
    counts
}

/// The hot-query schedule: request `i` asks for query `at(i)`. Every
/// `cycle` consecutive requests hold query `q` exactly `counts[q]` times;
/// the order inside each cycle is a seeded shuffle, different per cycle.
#[derive(Debug, Clone)]
pub struct ZipfCycles {
    cycle: usize,
    /// `CYCLES` shuffled cycles back to back; request `i` reads slot
    /// `i % len`, so a run longer than that replays them.
    slots: Vec<u8>,
}

/// Distinct shuffles generated before the schedule wraps.
const CYCLES: usize = 64;

impl ZipfCycles {
    pub fn new(seed: u64, queries: usize, cycle: usize, s: f64) -> Self {
        let counts = zipf_counts(queries, cycle, s);
        let base: Vec<u8> = counts
            .iter()
            .enumerate()
            .flat_map(|(q, &c)| std::iter::repeat_n(q as u8, c))
            .collect();
        let mut rng = stream(seed, 1);
        let mut slots = Vec::with_capacity(cycle * CYCLES);
        for _ in 0..CYCLES {
            let mut c = base.clone();
            rng.shuffle(&mut c);
            slots.extend(c);
        }
        ZipfCycles { cycle, slots }
    }

    pub fn at(&self, i: usize) -> usize {
        self.slots[i % self.slots.len()] as usize
    }

    /// Requests per cycle.
    pub fn cycle(&self) -> usize {
        self.cycle
    }
}

/// The ad-hoc schedule: a fixed cycle of template slots, each template
/// walking its own seeded permutation of its constant pool. Request `i`
/// asks for key `at(i)`, an index into the concatenated pools.
#[derive(Debug, Clone)]
pub struct TemplateCycle {
    /// Template of each slot of the cycle.
    slots: Vec<usize>,
    /// Per template: its keys in seeded order.
    perms: Vec<Vec<usize>>,
    /// Per slot: how many earlier slots of the cycle use the same template.
    slot_rank: Vec<usize>,
    /// Per template: slots per cycle.
    per_cycle: Vec<usize>,
}

impl TemplateCycle {
    /// `slots[j]` is the template of slot `j`; `pools[t]` is how many keys
    /// template `t` owns. Keys are numbered pool after pool.
    pub fn new(seed: u64, slots: &[usize], pools: &[usize]) -> Self {
        let mut first = 0;
        let mut perms = Vec::new();
        for (t, &n) in pools.iter().enumerate() {
            let mut p: Vec<usize> = (first..first + n).collect();
            stream(seed, 16 + t as u64).shuffle(&mut p);
            perms.push(p);
            first += n;
        }
        let mut per_cycle = vec![0; pools.len()];
        let mut slot_rank = Vec::new();
        for &t in slots {
            slot_rank.push(per_cycle[t]);
            per_cycle[t] += 1;
        }
        TemplateCycle {
            slots: slots.to_vec(),
            perms,
            slot_rank,
            per_cycle,
        }
    }

    pub fn at(&self, i: usize) -> usize {
        let (round, slot) = (i / self.slots.len(), i % self.slots.len());
        let t = self.slots[slot];
        let k = round * self.per_cycle[t] + self.slot_rank[slot];
        self.perms[t][k % self.perms[t].len()]
    }

    /// Requests after which every pool has wrapped a whole number of
    /// times: over this many requests the multiset of keys is the same for
    /// every seed.
    pub fn full_cycle(&self) -> usize {
        let gcd = |mut a: usize, mut b: usize| {
            while b != 0 {
                (a, b) = (b, a % b);
            }
            a
        };
        let mut rounds = 1;
        for (t, p) in self.perms.iter().enumerate() {
            // rounds until pool t wraps: len / gcd(len, per_cycle)
            let need = p.len() / gcd(p.len(), self.per_cycle[t].max(1));
            rounds = rounds / gcd(rounds, need) * need;
        }
        rounds * self.slots.len()
    }
}

/// Open-loop arithmetic: request `i` of a stream at `rate_per_s` is due
/// `i / rate` after the start, whatever happened to requests before it.
pub fn due_ns(i: usize, rate_per_s: f64) -> u64 {
    (i as f64 * 1e9 / rate_per_s).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_counts_sum_to_the_cycle_and_are_skewed() {
        let c = zipf_counts(7, 100, 1.1);
        assert_eq!(c.iter().sum::<usize>(), 100);
        assert!(c.windows(2).all(|w| w[0] >= w[1]), "{c:?}");
        assert!(c[0] > 4 * c[6] && c[6] >= 1, "{c:?}");
    }

    #[test]
    fn zipf_cycles_are_seed_stable_and_differ_across_seeds() {
        let a = ZipfCycles::new(7, 7, 100, 1.1);
        let b = ZipfCycles::new(7, 7, 100, 1.1);
        let c = ZipfCycles::new(8, 7, 100, 1.1);
        let take = |z: &ZipfCycles| (0..500).map(|i| z.at(i)).collect::<Vec<_>>();
        assert_eq!(take(&a), take(&b));
        assert_ne!(take(&a), take(&c));
        // every cycle of every seed holds the same multiset
        let counts = zipf_counts(7, 100, 1.1);
        for z in [&a, &c] {
            for cyc in 0..70 {
                let mut seen = vec![0; 7];
                for i in 0..100 {
                    seen[z.at(cyc * 100 + i)] += 1;
                }
                assert_eq!(seen, counts);
            }
        }
        // and consecutive cycles are shuffled differently
        assert_ne!(take(&a)[..100], take(&a)[100..200]);
    }

    #[test]
    fn template_permutation_is_seeded_and_never_repeats_within_64() {
        let slots = [0, 1, 2, 2, 3];
        let pools = [50, 20, 60, 150];
        let a = TemplateCycle::new(1998, &slots, &pools);
        let b = TemplateCycle::new(1998, &slots, &pools);
        let c = TemplateCycle::new(1999, &slots, &pools);
        let take = |t: &TemplateCycle| (0..4_000).map(|i| t.at(i)).collect::<Vec<_>>();
        assert_eq!(take(&a), take(&b));
        assert_ne!(take(&a), take(&c));
        assert_eq!(a.full_cycle(), 1_500);
        for t in [&a, &c] {
            let keys = take(t);
            for (i, k) in keys.iter().enumerate() {
                let from = i.saturating_sub(64);
                assert!(!keys[from..i].contains(k), "key {k} repeats at {i}");
            }
            // one full cycle is the same multiset whatever the seed
            let mut seen = vec![0usize; 280];
            for &k in &keys[..1_500] {
                seen[k] += 1;
            }
            let expect: Vec<usize> = [(50, 6), (20, 15), (60, 10), (150, 2)]
                .iter()
                .flat_map(|&(n, times)| std::iter::repeat_n(times, n))
                .collect();
            assert_eq!(seen, expect);
        }
    }

    #[test]
    fn open_loop_due_times_are_fixed_by_the_rate_alone() {
        assert_eq!(due_ns(0, 120.0), 0);
        assert_eq!(due_ns(120, 120.0), 1_000_000_000);
        assert_eq!(due_ns(1, 120.0), 8_333_333);
        // two senders dealt round-robin keep the global spacing
        let sender0: Vec<u64> = (0..6).step_by(2).map(|i| due_ns(i, 120.0)).collect();
        let sender1: Vec<u64> = (1..6).step_by(2).map(|i| due_ns(i, 120.0)).collect();
        assert!(sender0
            .iter()
            .zip(&sender1)
            .all(|(a, b)| b - a == 8_333_333 || b - a == 8_333_334));
    }
}
